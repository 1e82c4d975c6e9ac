// Command campaign runs durable, resumable sweep campaigns: a JSON
// manifest describing a grid of networks × deadline scales × AP
// dispatching policies × trials is compiled into content-addressed
// simulation jobs whose results persist in a disk store, so a killed
// run picks up where it left off and a repeated run is warm-started.
//
// Usage:
//
//	campaign run     -manifest sweep.json -dir out [-parallel N] [-format md] [-stop-after N] [-trace FILE]
//	campaign resume  -dir out [-parallel N] [-format md] [-trace FILE]
//	campaign status  -dir out
//	campaign compact -dir out
//
// run compiles the manifest, snapshots it into dir/manifest.json and
// executes against the store dir/results.jsonl (creating both; an
// existing directory must hold the same manifest). resume re-executes
// from the snapshot — identical to re-running run, without needing the
// original manifest path. status reports store coverage and exits.
// compact rewrites the store dropping the dead weight an append-only
// file accumulates (torn lines from kills mid-write); a compacted
// store resumes byte-identically. Run it only while no other campaign
// process has the directory open — a concurrent writer's results
// appended after the rewrite would be lost (and merely re-executed on
// the next resume).
//
// Completed rows stream to stderr the moment they settle (in grid
// order); the final table goes to stdout. An interrupted run (SIGINT,
// or -stop-after for testing) exits with status 3 after persisting
// every completed job; resuming produces a table byte-identical to an
// uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"

	"profirt"
	"profirt/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against explicit streams so tests can pin the
// exact bytes (and CI can byte-compare resumed vs uninterrupted runs).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet("campaign "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	manifest := fs.String("manifest", "", "campaign manifest JSON (run only)")
	dir := fs.String("dir", "", "campaign directory (manifest snapshot + result store)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker pool size (1 = sequential; tables are identical either way)")
	format := fs.String("format", "md", "output format: plain, md or csv")
	stopAfter := fs.Int("stop-after", 0,
		"stop after N newly executed jobs (simulates a kill; used by tests/CI)")
	traceFile := fs.String("trace", "",
		"write a Chrome trace_event JSON of the run's spans to this file (observational only)")
	if err := fs.Parse(rest); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "campaign: -dir is required")
		return 2
	}

	var c *profirt.Campaign
	var err error
	switch cmd {
	case "run":
		if *manifest == "" {
			fmt.Fprintln(stderr, "campaign run: -manifest is required")
			return 2
		}
		if c, err = profirt.LoadCampaign(*manifest); err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 1
		}
		if err = snapshotManifest(c, *dir); err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 1
		}
	case "resume", "status", "compact":
		if c, err = profirt.LoadCampaign(filepath.Join(*dir, "manifest.json")); err != nil {
			fmt.Fprintf(stderr, "campaign: %v (did a run create this directory?)\n", err)
			return 1
		}
	default:
		usage(stderr)
		return 2
	}

	store, err := profirt.OpenResultStore(filepath.Join(*dir, "results.jsonl"), c.Hash[:])
	if err != nil {
		fmt.Fprintf(stderr, "campaign: %v\n", err)
		return 1
	}
	defer store.Close()

	switch cmd {
	case "status":
		rep := c.Status(store)
		fmt.Fprintf(stdout, "campaign %s: %d/%d jobs done, %d/%d rows complete\n",
			c.Manifest.Name, rep.Done, rep.Jobs, rep.RowsDone, rep.Rows)
		return 0
	case "compact":
		before := fileSize(filepath.Join(*dir, "results.jsonl"))
		dropped := store.Stats().Dropped
		if err := store.Compact(); err != nil {
			fmt.Fprintf(stderr, "campaign: compact: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "campaign %s: compacted store: %d records kept, %d dead lines dropped, %d -> %d bytes\n",
			c.Manifest.Name, store.Len(), dropped, before, fileSize(filepath.Join(*dir, "results.jsonl")))
		return 0
	}

	// One Engine owns the worker pool and the per-row analysis cache
	// for the whole run; every campaign job is admitted onto that
	// single bounded pool, and the run restores from and writes
	// through this directory's store.
	eng := profirt.NewEngine(
		profirt.WithParallelism(*parallel),
		profirt.WithCache(profirt.NewAnalysisCache(0)),
	)
	defer eng.Close()

	// -trace hangs an obs.Tracer on the run's context; every span the
	// stack records (campaign.run, pool jobs, memo lookups, row
	// reductions) lands in one trace_event file. The table is
	// byte-identical with or without it.
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer(cmd+" "+c.Manifest.Name, nil)
		ctx = obs.WithTracer(ctx, tracer)
	}
	res, err := eng.RunCampaign(ctx, c, profirt.CampaignOptions{
		Store:     store,
		StopAfter: *stopAfter,
		RowSink: func(e profirt.TableRowEvent) {
			fmt.Fprintf(stderr, "row %d/%d: %s\n", e.Index+1, e.Total, strings.Join(e.Cells, "  "))
		},
	})
	if tracer != nil {
		if terr := writeTrace(tracer, *traceFile); terr != nil {
			fmt.Fprintf(stderr, "campaign: trace: %v\n", terr)
		} else {
			fmt.Fprintf(stderr, "campaign: trace written to %s (%d spans)\n", *traceFile, len(tracer.Events()))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "campaign: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "campaign %s: %d jobs (%d restored, %d executed, %d skipped); store: %d records\n",
		c.Manifest.Name, res.Jobs, res.Restored, res.Executed, res.Skipped, store.Len())
	if res.Skipped > 0 {
		fmt.Fprintf(stderr, "campaign: interrupted with %d jobs pending; rerun `campaign resume -dir %s` to finish\n",
			res.Skipped, *dir)
		return 3
	}
	if err := profirt.RenderTable(stdout, res.Table, *format); err != nil {
		fmt.Fprintf(stderr, "campaign: %v\n", err)
		return 1
	}
	return 0
}

// writeTrace exports the run's spans as Chrome trace_event JSON.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, werr := tr.WriteTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// fileSize returns the store size for the compact summary (0 when
// unreadable — the summary is informational).
func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// snapshotManifest persists the resolved manifest into dir so resume
// and status need no external file; an existing snapshot must compile
// to the same grid (hash equality) or the run is refused.
func snapshotManifest(c *profirt.Campaign, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "manifest.json")
	if raw, err := os.ReadFile(path); err == nil {
		prev, err := profirt.ParseCampaign(raw)
		if err != nil {
			return fmt.Errorf("existing %s is not a valid manifest: %w", path, err)
		}
		if prev.Hash != c.Hash {
			return fmt.Errorf("%s holds a different campaign; use a fresh -dir", dir)
		}
		return nil
	}
	raw, err := json.MarshalIndent(c.Manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: campaign {run|resume|status|compact} [flags] (see -h per subcommand)")
}
