package core

import (
	"bytes"
	"flag"
	"fmt"
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
	vectorSeed   = 14
	vectorCases  = 2000
	vectorGolden = "message_bounds.golden"
	// msgHorizonTicks is the 1<<40 iteration cap of the message
	// analyses, restated here so the golden comparison does not lean on
	// the code under test.
	msgHorizonTicks = Ticks(1) << 40
)

// vectorAnalyses are the six columns of the golden file: DM literal,
// DM revised and EDF, each without and with low-priority traffic.
var vectorAnalyses = []struct {
	name string
	run  func([]Stream, Ticks) []Ticks
	// horizonClass marks the one analysis whose parent-era values that
	// were finite and >= 1<<40 may now read MaxTicks: the revised DM
	// walk used to skip the horizon check on a busy period that closes
	// at its first iterate.
	horizonClass bool
}{
	{"dm-literal", func(s []Stream, tc Ticks) []Ticks { return DMResponseTimes(s, tc, DMOptions{Literal: true}) }, false},
	{"dm-literal+low", func(s []Stream, tc Ticks) []Ticks {
		return DMResponseTimes(s, tc, DMOptions{Literal: true, BlockingFromLowPriority: true})
	}, false},
	{"dm-revised", func(s []Stream, tc Ticks) []Ticks { return DMResponseTimes(s, tc, DMOptions{}) }, true},
	{"dm-revised+low", func(s []Stream, tc Ticks) []Ticks {
		return DMResponseTimes(s, tc, DMOptions{BlockingFromLowPriority: true})
	}, true},
	{"edf", func(s []Stream, tc Ticks) []Ticks { return EDFResponseTimes(s, tc, EDFOptions{}) }, false},
	{"edf+low", func(s []Stream, tc Ticks) []Ticks {
		return EDFResponseTimes(s, tc, EDFOptions{BlockingFromLowPriority: true})
	}, false},
}

// unitPartitions are multiplier sets m with Σ 1/m = 1: streams with
// periods m·T_cycle load the token exactly once per cycle.
var unitPartitions = [][]Ticks{
	{1}, {2, 2}, {3, 3, 3}, {2, 3, 6}, {2, 4, 4}, {4, 4, 4, 4},
	{2, 4, 8, 8}, {2, 6, 6, 6}, {3, 3, 6, 6}, {2, 5, 10, 10, 10},
}

// vectorCase draws stream set k of the golden corpus from rng. Four
// bands rotate: two of bus-sized token cycles with random periods,
// one whose periods are multiples of T_cycle at, just under or just
// over a utilisation of exactly 1, and one with T_cycle in 2^38–2^41
// where busy periods and iterates meet the 1<<40 horizon. Every band
// draws deadline ties and release jitter up to T.
func vectorCase(rng *rand.Rand, k int) (Ticks, []Stream) {
	var tc Ticks
	var periods []Ticks
	switch k % 4 {
	case 0, 1:
		tc = Ticks(50 + rng.Intn(5000))
		n := 1 + rng.Intn(6)
		for range n {
			periods = append(periods, tc*Ticks(1+rng.Intn(4*n))+Ticks(rng.Int63n(int64(tc))))
		}
	case 2:
		tc = Ticks(50 + rng.Intn(5000))
		part := unitPartitions[rng.Intn(len(unitPartitions))]
		for _, m := range part {
			periods = append(periods, m*tc)
		}
		switch rng.Intn(3) {
		case 0: // just under 1
			periods[rng.Intn(len(periods))] += tc
		case 1: // just over 1
			periods = append(periods, Ticks(2+rng.Intn(30))*tc)
		}
	case 3:
		tc = Ticks(1)<<38 + Ticks(rng.Int63n(int64(Ticks(1)<<41-Ticks(1)<<38+1)))
		n := 1 + rng.Intn(4)
		for range n {
			if rng.Intn(2) == 0 {
				periods = append(periods, tc*Ticks(1+rng.Intn(4*n+4)))
			} else {
				periods = append(periods, tc+Ticks(rng.Int63n(int64(16*tc))))
			}
		}
	}
	streams := make([]Stream, len(periods))
	for i, p := range periods {
		s := Stream{Name: fmt.Sprintf("s%d", i), Ch: 1 + Ticks(rng.Int63n(int64(tc))), T: p}
		switch rng.Intn(4) {
		case 0:
			s.D = p
		case 1:
			if i > 0 {
				s.D = streams[rng.Intn(i)].D // deadline tie
				break
			}
			fallthrough
		default:
			s.D = tc + Ticks(rng.Int63n(int64(2*p)))
		}
		if rng.Intn(2) == 0 {
			s.J = Ticks(rng.Int63n(int64(p) + 1))
		}
		streams[i] = s
	}
	return tc, streams
}

// formatBound renders one bound of the golden file; "max" is MaxTicks.
func formatBound(r Ticks) string {
	if r == timeunit.MaxTicks {
		return "max"
	}
	return strconv.FormatInt(int64(r), 10)
}

// renderVectors evaluates every analysis on every corpus case, one
// line per case: "k T_cycle | col | col …" with comma-separated bounds
// in stream order.
func renderVectors() []byte {
	rng := rand.New(rand.NewSource(vectorSeed))
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Message bounds of %d stream sets (seed %d): k T_cycle", vectorCases, vectorSeed)
	for _, a := range vectorAnalyses {
		fmt.Fprintf(&b, " | %s", a.name)
	}
	b.WriteString("\n# Regenerate with: go test ./internal/core -run TestMessageBoundVectors -update\n")
	for k := range vectorCases {
		tc, streams := vectorCase(rng, k)
		fmt.Fprintf(&b, "%d %d", k, tc)
		for _, a := range vectorAnalyses {
			b.WriteString(" |")
			for i, r := range a.run(streams, tc) {
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

// TestMessageBoundVectors pins the DM (literal and revised) and EDF
// message bounds, with and without low-priority traffic, on a fixed
// corpus against testdata/message_bounds.golden. Every value must
// match, with one documented exception: a revised-DM value that the
// golden records as finite and >= 1<<40 may now be MaxTicks, because a
// level busy period reaching the horizon reports divergence even when
// it closes at its first iterate. The test logs how many values fall
// in that class.
func TestMessageBoundVectors(t *testing.T) {
	got := renderVectors()
	path := filepath.Join("testdata", vectorGolden)
	if *update {
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
	horizonClass := make([]int, len(vectorAnalyses))
	failures := 0
	for ln, g := range gotLines {
		w := wantLines[ln]
		if g == w {
			continue
		}
		gc, wc := strings.Split(g, " |"), strings.Split(w, " |")
		if len(gc) != len(wc) || gc[0] != wc[0] {
			t.Fatalf("line %d: case header differs:\n got %s\nwant %s", ln+1, g, w)
		}
		for c := 1; c < len(gc); c++ {
			a := vectorAnalyses[c-1]
			gv, wv := strings.Split(strings.TrimSpace(gc[c]), ","), strings.Split(strings.TrimSpace(wc[c]), ",")
			if len(gv) != len(wv) {
				t.Fatalf("line %d %s: %d bounds, golden has %d", ln+1, a.name, len(gv), len(wv))
			}
			for i := range gv {
				if gv[i] == wv[i] {
					continue
				}
				parent, perr := strconv.ParseInt(wv[i], 10, 64)
				if a.horizonClass && gv[i] == "max" && perr == nil && Ticks(parent) >= msgHorizonTicks {
					horizonClass[c-1]++
					continue
				}
				if failures++; failures <= 20 {
					t.Errorf("case %s %s stream %d: got %s, golden %s", gc[0], a.name, i, gv[i], wv[i])
				}
			}
		}
	}
	if failures > 20 {
		t.Errorf("… %d mismatches in total", failures)
	}
	for c, n := range horizonClass {
		if vectorAnalyses[c].horizonClass {
			t.Logf("%s: %d golden values finite and >= 1<<40 now MaxTicks", vectorAnalyses[c].name, n)
		}
	}
}
