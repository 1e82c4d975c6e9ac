package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// collection is a set of runs of one commit, as -collect writes it and
// -compare reads it.
type collection struct {
	Commit     string      `json:"commit"`
	NumCPU     int         `json:"numCPU"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seconds    int         `json:"seconds"`
	Trace      int         `json:"trace"`
	Runs       []runRecord `json:"runs"`
}

// runRecord is one run: its result line and its diagnostics.
type runRecord struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Result   result          `json:"result"`
	Detail   json.RawMessage `json:"detail"`
}

// side is one checkout whose runs -collect records into one file.
type side struct {
	root, path string
	c          collection
}

// collectSeeds is how many seeds -collect runs every workload on: the
// ten pairs the comparison rules in compare.go are written for.
const collectSeeds = 10

// collectRuns runs every workload on collectSeeds seeds, seed,
// seed+1, …, on every side, and rewrites each side's file after every
// run. The workloads interleave round-robin and the sides alternate
// which runs first, so slow drift of the host's speed lands on all of
// them alike; two sides are compared by pairing their runs seed by
// seed. Each run is a fresh process started by the side's own
// bench/run.sh, so each side is measured with its own code.
func collectRuns(sides []*side, seed int64, seconds, trace int, log io.Writer) error {
	for _, sd := range sides {
		sd.c = collection{
			Commit:     gitCommit(sd.root),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seconds:    seconds,
			Trace:      trace,
		}
	}
	for r := range collectSeeds {
		s := seed + int64(r)
		for _, w := range workloadOrder {
			for k := range sides {
				sd := sides[k]
				if r%2 == 1 {
					sd = sides[len(sides)-1-k]
				}
				fmt.Fprintf(log, "collect: run %d/%d %s seed %d in %s\n", r+1, collectSeeds, w, s, sd.root)
				rr, err := runOnce(sd.root, w, s, seconds, trace, log)
				if err != nil {
					return fmt.Errorf("%s seed %d in %s: %w", w, s, sd.root, err)
				}
				sd.c.Runs = append(sd.c.Runs, rr)
				if err := writeJSON(sd.path, sd.c); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// runOnce runs one workload through root's bench/run.sh and parses its
// result line from stdout and its diagnostics line from stderr.
func runOnce(root, w string, seed int64, seconds, trace int, log io.Writer) (runRecord, error) {
	rr := runRecord{Workload: w, Seed: seed}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, io.MultiWriter(&stderr, log)
	if err := cmd.Run(); err != nil {
		return rr, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rr.Result); err != nil {
		return rr, fmt.Errorf("parsing the result line: %w", err)
	}
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			rr.Detail = json.RawMessage(d)
		}
	}
	return rr, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// gitCommit names the commit under test, or "" outside a git checkout.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", filepath.Clean(root), "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
