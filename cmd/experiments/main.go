// Command experiments regenerates the reproduction tables recorded in
// EXPERIMENTS.md: one experiment per paper equation/claim (see
// DESIGN.md §4 for the index).
//
// Usage:
//
//	experiments [-id E7] [-quick] [-trials N] [-seed N] [-parallel N] [-cache=false] [-format plain|md|csv]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"profirt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against explicit argument and output streams so
// the golden-output test can pin the exact bytes a release prints.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("id", "", "run a single experiment (e.g. E7); default all")
	quick := fs.Bool("quick", false, "reduced grids and trial counts")
	trials := fs.Int("trials", 0, "override trials per grid cell")
	seed := fs.Int64("seed", 1, "random seed (tables are reproducible per seed; 0 selects the default seed 1)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker pool size (1 = sequential; tables are identical either way)")
	cache := fs.Bool("cache", true,
		"memoize repeated DM/EDF/holistic fixed points (tables are identical either way)")
	format := fs.String("format", "md", "output format: plain, md or csv")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range profirt.Experiments() {
			fmt.Fprintf(stdout, "%-4s %-28s %s\n", e.ID, e.Anchor, e.Title)
		}
		return 0
	}

	// One Engine owns the worker pool and the analysis cache for the
	// whole run; every experiment's grid cells are admitted onto that
	// single bounded pool.
	engOpts := []profirt.EngineOption{profirt.WithParallelism(*parallel)}
	if *cache {
		engOpts = append(engOpts, profirt.WithCache(profirt.NewAnalysisCache(0)))
	}
	if !*quick {
		// Full-size runs take minutes per experiment; stream per-job
		// completion events and finished table rows to stderr so the
		// run is observable while the tables (which must assemble in
		// deterministic grid order) are still being built. Quick runs
		// stay silent — the golden test pins their stdout AND stderr
		// byte-for-byte. Both sinks run on pool workers, so they share
		// one serialised writer.
		w := &lockedWriter{w: stderr}
		engOpts = append(engOpts,
			profirt.WithProgress(progressSink(w)),
			profirt.WithRowSink(rowSink(w)))
	}
	eng := profirt.NewEngine(engOpts...)
	defer eng.Close()

	opts := profirt.ExperimentOptions{Seed: *seed, Trials: *trials, Quick: *quick}
	var ids []string
	if *id != "" {
		ids = []string{*id}
	} else {
		for _, e := range profirt.Experiments() {
			ids = append(ids, e.ID)
		}
	}

	// One RunExperiments call per experiment, so each experiment's
	// tables hit stdout the moment it finishes rather than after the
	// whole suite.
	for _, eid := range ids {
		res, err := eng.RunExperiments(context.Background(), []string{eid}, opts)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v (use -list)\n", err)
			return 2
		}
		for _, er := range res {
			fmt.Fprintf(stdout, "## %s — %s (%s)\n\n", er.ID, er.Title, er.Anchor)
			for _, t := range er.Tables {
				if err := profirt.RenderTable(stdout, t, *format); err != nil {
					fmt.Fprintf(stderr, "experiments: %v\n", err)
					return 1
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	return 0
}

// progressSink returns a row-streaming progress callback writing
// throttled "<id>: done/total jobs" lines to w. Events arrive
// concurrently from pool workers; the sink serialises them, drops
// stale ones (a worker can be descheduled between incrementing the
// counter and reporting, so events may arrive out of order), and
// prints roughly every 10% plus the final event of each experiment
// grid.
func progressSink(w io.Writer) func(profirt.EngineEvent) {
	var mu sync.Mutex
	// The staleness guard is keyed per (experiment, job count): every
	// current driver fans out at most one grid per experiment, and a
	// hypothetical second grid would almost certainly schedule a
	// different job count and so start a fresh monotonic sequence.
	printed := map[string]int{}
	return func(ev profirt.EngineEvent) {
		step := ev.Total / 10
		if step < 1 {
			step = 1
		}
		if ev.Done != ev.Total && ev.Done%step != 0 {
			return
		}
		key := fmt.Sprintf("%s/%d", ev.Op, ev.Total)
		mu.Lock()
		if ev.Done > printed[key] {
			printed[key] = ev.Done
			fmt.Fprintf(w, "%s: %d/%d jobs\n", ev.Op, ev.Done, ev.Total)
		}
		mu.Unlock()
	}
}

// rowSink streams each finished table row to w the moment the
// experiment harness releases it (rows arrive in grid order, while
// later cells are still running). Events for one table are already
// serialised by the row streamer; w must serialise writes so lines of
// concurrently assembling tables interleave cleanly.
func rowSink(w io.Writer) func(profirt.TableRowEvent) {
	return func(ev profirt.TableRowEvent) {
		fmt.Fprintf(w, "%s row %d/%d: %s\n", ev.Table.Title, ev.Index+1, ev.Total, strings.Join(ev.Cells, "  "))
	}
}

// lockedWriter serialises writes from the sinks' concurrent callers:
// each Fprintf is one Write, so every line lands whole.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
