// Command bench is the end-to-end benchmark of profiserve and the
// experiments suite, with a traced pass that replays the same inputs
// through each layer. See README.md for the workloads, the metrics and
// how to compare two commits.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh -collect change.json [-parent DIR -parent-collect parent.json] [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh -compare parent.json change.json
//
// A single run prints diagnostics to stderr and, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root to build the commands from")
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	seed := fs.Int64("seed", 1, "input seed; equal seeds give identical inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer pass")
	collect := fs.String("collect", "", "run every workload on ten successive seeds and write all results to this file")
	parent := fs.String("parent", "", "with -collect: also run every workload and seed in this checkout, alternating with -root")
	parentCollect := fs.String("parent-collect", "", "with -parent: the file for the -parent checkout's runs")
	compare := fs.Bool("compare", false, "compare two -collect files: bench -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two -collect files")
			return 2
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *collect != "" {
		sides := []*side{{root: *root, path: *collect}}
		if (*parent == "") != (*parentCollect == "") {
			fmt.Fprintln(stderr, "bench: -parent and -parent-collect go together")
			return 2
		}
		if *parent != "" {
			sides = append([]*side{{root: *parent, path: *parentCollect}}, sides...)
		}
		if err := collectRuns(sides, *seed, *seconds, *trace, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadOrder, ", "))
		return 2
	}
	env, err := newEnv(*root, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rec, err := w(env)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	res, err := rec.result(spec, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	rec.Detail.Workload, rec.Detail.Seed, rec.Detail.Trace = *name, *seed, *trace
	rec.Detail.Metrics = rec.measured()
	detail, err := json.Marshal(rec.Detail)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stderr, "%s%s\n", detailPrefix, detail)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// env is what every workload run shares: where the built commands
// are, the inputs' seed and the time budget.
type env struct {
	root    string
	bin     string // directory holding the built profiserve and experiments
	out     string // scratch directory for trace files
	seed    int64
	seconds float64
	traced  bool
	conns   int // client connections and load goroutines: one per CPU
	log     io.Writer
}

func newEnv(root string, seed int64, seconds int, traced bool, log io.Writer) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "profiserve")); err != nil {
		return nil, errors.New("no cmd/profiserve under -root: run from the repository root")
	}
	e := &env{
		root:    root,
		bin:     filepath.Join(root, ".bench_build", "bin"),
		out:     filepath.Join(root, ".bench_build"),
		seed:    seed,
		seconds: float64(seconds),
		traced:  traced,
		conns:   runtime.NumCPU(),
		log:     log,
	}
	if err := buildBinaries(root, e.bin); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// detailPrefix marks the stderr line carrying a run's diagnostics
// (phases, quartiles, sample counts, host facts); -collect keeps it.
const detailPrefix = "bench-detail "
