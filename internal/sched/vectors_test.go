package sched

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"profirt/internal/timeunit"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

const (
	vectorSeed   = 15
	vectorCases  = 2400
	vectorGolden = "task_bounds.golden"
)

// vectorAnalyses are the six columns of the golden file: the
// fixed-priority analyses (preemptive and non-preemptive, each literal
// and revised) on the DM order, then the two EDF analyses.
var vectorAnalyses = []struct {
	name string
	run  func(TaskSet) []Ticks
}{
	{"fp-p-literal", func(ts TaskSet) []Ticks {
		return ResponseTimesFP(ts, FPOptions{Preemptive: true, LiteralPaperRecurrence: true})
	}},
	{"fp-p-revised", func(ts TaskSet) []Ticks { return ResponseTimesFP(ts, FPOptions{Preemptive: true}) }},
	{"fp-np-literal", func(ts TaskSet) []Ticks {
		return ResponseTimesFP(ts, FPOptions{LiteralPaperRecurrence: true})
	}},
	{"fp-np-revised", func(ts TaskSet) []Ticks { return ResponseTimesFP(ts, FPOptions{}) }},
	{"edf-p", func(ts TaskSet) []Ticks { return ResponseTimesEDFPreemptive(ts) }},
	{"edf-np", func(ts TaskSet) []Ticks { return ResponseTimesEDFNonPreemptive(ts) }},
}

// unitPartitions are multiplier sets m with Σ 1/m = 1: tasks with
// T = m·C load the processor exactly once over.
var unitPartitions = [][]Ticks{
	{1}, {2, 2}, {3, 3, 3}, {2, 3, 6}, {2, 4, 4}, {4, 4, 4, 4},
	{2, 4, 8, 8}, {2, 6, 6, 6}, {3, 3, 6, 6}, {2, 5, 10, 10, 10},
}

// e5Set draws a set shaped like experiment E5's: four tasks, UUniFast
// utilisation shares of u, log-uniform periods in [50, 1500] and
// deadlines at 0.8–1 of the period.
func e5Set(rng *rand.Rand, u float64) TaskSet {
	const n = 4
	shares := make([]float64, n)
	sum := u
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-i-1))
		shares[i] = sum - next
		sum = next
	}
	shares[n-1] = sum
	ts := make(TaskSet, n)
	for i := range ts {
		x := math.Exp(math.Log(50) + rng.Float64()*(math.Log(1500)-math.Log(50)))
		T := min(max(Ticks(math.Round(x)), 50), 1500)
		c := min(max(Ticks(math.Round(shares[i]*float64(T))), 1), T)
		d := max(Ticks(math.Round((0.8+rng.Float64()*0.2)*float64(T))), c)
		ts[i] = Task{Name: fmt.Sprintf("t%d", i), C: c, D: d, T: T}
	}
	return ts
}

// simSet draws a set shaped like the cpusim soundness trials: 2–4
// tasks with C in 1–4, periods near n·C/maxU and constrained deadlines.
func simSet(rng *rand.Rand, maxU float64) TaskSet {
	n := 2 + rng.Intn(3)
	ts := make(TaskSet, n)
	for i := range ts {
		c := Ticks(1 + rng.Intn(4))
		T := max(Ticks(float64(c)*float64(n)/maxU)+Ticks(rng.Intn(30))+1, c+1)
		d := c + Ticks(rng.Intn(int(T-c))) + 1
		ts[i] = Task{Name: fmt.Sprintf("t%d", i), C: c, D: d, T: T}
	}
	return ts
}

// unitSet draws a set at utilisation exactly 1 (T = m·C over a unit
// partition), or just over it with one extra unit-cost task; deadlines
// are implicit, random or tied to an earlier task's.
func unitSet(rng *rand.Rand) TaskSet {
	part := unitPartitions[rng.Intn(len(unitPartitions))]
	var ts TaskSet
	for _, m := range part {
		c := Ticks(1 + rng.Intn(3))
		ts = append(ts, Task{C: c, T: m * c})
	}
	if rng.Intn(2) == 0 {
		ts = append(ts, Task{C: 1, T: Ticks(10 + rng.Intn(51))})
	}
	for i := range ts {
		ts[i].Name = fmt.Sprintf("t%d", i)
		switch rng.Intn(3) {
		case 0:
			ts[i].D = ts[i].T
		case 1:
			if i > 0 {
				ts[i].D = min(max(ts[rng.Intn(i)].D, ts[i].C), ts[i].T)
				break
			}
			fallthrough
		default:
			ts[i].D = ts[i].C + Ticks(rng.Int63n(int64(ts[i].T-ts[i].C+1)))
		}
	}
	return ts
}

// vectorCase draws task set k of the golden corpus from rng, DM-ordered.
// Four bands rotate: E5-shaped sets over E5's utilisation grid,
// cpusim-shaped sets at the soundness trials' and the no-miss trials'
// loads, and sets at or just over utilisation 1. Every set has J = 0.
func vectorCase(rng *rand.Rand, k int) TaskSet {
	var ts TaskSet
	switch k % 4 {
	case 0:
		ts = e5Set(rng, []float64{0.3, 0.5, 0.7, 0.8, 0.9}[rng.Intn(5)])
	case 1:
		ts = simSet(rng, 0.85)
	case 2:
		ts = simSet(rng, 0.95)
	case 3:
		ts = unitSet(rng)
	}
	return SortDM(ts)
}

// formatBound renders one bound of the golden file; "max" is MaxTicks.
func formatBound(r Ticks) string {
	if r == timeunit.MaxTicks {
		return "max"
	}
	return strconv.FormatInt(int64(r), 10)
}

// renderVectors evaluates every analysis on every corpus case, one
// line per case: "k C/D/T … | col | col …" with the DM-ordered set
// and comma-separated bounds in that order.
func renderVectors() []byte {
	rng := rand.New(rand.NewSource(vectorSeed))
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Task bounds of %d task sets (seed %d): k C/D/T… (DM order)", vectorCases, vectorSeed)
	for _, a := range vectorAnalyses {
		fmt.Fprintf(&b, " | %s", a.name)
	}
	b.WriteString("\n# Regenerate with: go test ./internal/sched -run TestTaskBoundVectors -update\n")
	for k := range vectorCases {
		ts := vectorCase(rng, k)
		fmt.Fprintf(&b, "%d", k)
		for _, t := range ts {
			fmt.Fprintf(&b, " %d/%d/%d", t.C, t.D, t.T)
		}
		for _, a := range vectorAnalyses {
			b.WriteString(" |")
			for i, r := range a.run(ts) {
				if i == 0 {
					b.WriteByte(' ')
				} else {
					b.WriteByte(',')
				}
				b.WriteString(formatBound(r))
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestTaskBoundVectors pins the fixed-priority and EDF task bounds on a
// fixed jitter-free corpus against testdata/task_bounds.golden: every
// value must match byte for byte.
func TestTaskBoundVectors(t *testing.T) {
	got := renderVectors()
	path := filepath.Join("testdata", vectorGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, corpus renders %d", len(wantLines), len(gotLines))
	}
	failures := 0
	for ln, g := range gotLines {
		if w := wantLines[ln]; g != w {
			if failures++; failures <= 20 {
				t.Errorf("line %d:\n got %s\nwant %s", ln+1, g, w)
			}
		}
	}
	if failures > 20 {
		t.Errorf("… %d mismatched lines in total", failures)
	}
}
