// Durable sweep campaigns: this walkthrough runs the manifest in this
// directory three ways — uninterrupted, killed mid-run and resumed,
// and warm-started against the finished store — and shows all three
// produce byte-identical tables, with the store absorbing every
// completed job the moment it lands. The killed, resumed and warm runs
// pass that one result store per call, and the uninterrupted run
// streams its rows through a per-call row sink; it also runs a few of
// the campaign's jobs as one Engine.SimulateBatch. It exits non-zero
// if the resumed table differs or the warm start executes a job.
//
// Run with: go run ./examples/campaign
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"

	"profirt"
)

func main() {
	c, err := profirt.LoadCampaign("examples/campaign/manifest.json")
	if err != nil {
		// Allow running from inside the directory too.
		if c, err = profirt.LoadCampaign("manifest.json"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("campaign %q: %d jobs across %d table rows\n\n",
		c.Manifest.Name, len(c.Jobs()), c.Rows())

	dir, err := os.MkdirTemp("", "campaign-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()

	// 1. Uninterrupted, storeless run with rows streaming as they land.
	fmt.Println("--- uninterrupted run (rows stream in grid order) ---")
	fullEng := profirt.NewEngine()
	full, err := fullEng.RunCampaign(ctx, c, profirt.CampaignOptions{
		RowSink: func(e profirt.TableRowEvent) {
			fmt.Printf("  row %d/%d settled\n", e.Index+1, e.Total)
		},
	})
	fullEng.Close()
	if err != nil {
		log.Fatal(err)
	}

	// 2. A killed campaign: the store persists every completed job, so
	// the resume only executes the remainder.
	store, err := profirt.OpenResultStore(filepath.Join(dir, "results.jsonl"), c.Hash[:])
	if err != nil {
		log.Fatal(err)
	}
	killEng := profirt.NewEngine(profirt.WithParallelism(2))
	killed, err := killEng.RunCampaign(ctx, c, profirt.CampaignOptions{
		Store:     store,
		StopAfter: 4, // stand-in for kill -9 at an arbitrary point
	})
	killEng.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- killed after %d executed jobs (%d skipped) ---\n",
		killed.Executed, killed.Skipped)

	// 3. Resume and warm start pass the same store to each call, so
	// each restores what the runs before it completed.
	eng := profirt.NewEngine()
	defer eng.Close()
	resumed, err := eng.RunCampaign(ctx, c, profirt.CampaignOptions{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resume: %d restored from disk, %d executed\n",
		resumed.Restored, resumed.Executed)
	if resumed.Table.String() != full.Table.String() {
		log.Fatal("resumed table differs from the uninterrupted one")
	}
	fmt.Println("resumed table identical to uninterrupted: true")

	// Warm start: a repeated campaign against the same store executes
	// nothing at all.
	warm, err := eng.RunCampaign(ctx, c, profirt.CampaignOptions{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	if warm.Executed != 0 {
		log.Fatalf("warm start executed %d jobs, want 0", warm.Executed)
	}
	fmt.Printf("warm start: %d restored, %d executed; store stats %+v\n\n",
		warm.Restored, warm.Executed, store.Stats())
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println(full.Table.String())

	// Engine.SimulateBatch runs independent simulations with per-run
	// seeds Seed ⊕ FNV(index), deterministic at any parallelism.
	cfgs := make([]profirt.SimConfig, 0, 4)
	for _, j := range c.Jobs()[:4] {
		cfgs = append(cfgs, j.Config)
	}
	seqEng := profirt.NewEngine(profirt.WithParallelism(1))
	seq, err := seqEng.SimulateBatch(ctx, cfgs, profirt.SimulateOptions{Seed: 9})
	if err != nil {
		panic(err)
	}
	seqEng.Close()
	parEng := profirt.NewEngine(profirt.WithParallelism(runtime.GOMAXPROCS(0)))
	par, err := parEng.SimulateBatch(ctx, cfgs, profirt.SimulateOptions{Seed: 9})
	if err != nil {
		panic(err)
	}
	parEng.Close()
	agree := true
	for i := range seq {
		if seq[i].Result.WorstTRR() != par[i].Result.WorstTRR() {
			agree = false
		}
	}
	fmt.Printf("SimulateBatch sequential == parallel: %v\n", agree)
}
