package topology

import (
	"reflect"
	"runtime"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/pool"
	"profirt/internal/profibus"
)

// noisyTopology builds a topology that actually exercises randomness
// (release jitter and fault-injected retries) and multi-stream
// contention, so any scheduling-order leak between segment workers
// would show up in the results.
func noisyTopology() Topology {
	jittery := func(name string, deadline Ticks) profibus.StreamConfig {
		s := simStream(name, deadline)
		s.Jitter = 300
		return s
	}
	st := Topology{
		Seed: 42,
		Segments: []Segment{
			simSegment("plant", ap.DM, jittery("sensor", testPeriod), jittery("actuate", 2*testPeriod)),
			simSegment("cell", ap.EDF, jittery("local", testPeriod), simStream("relayin", 40_000)),
			simSegment("line", ap.FCFS, simStream("sink", 60_000), jittery("chatter", testPeriod)),
		},
		Bridges: []Bridge{
			{Name: "pc", From: "plant", To: "cell", Latency: testLatency, Relays: []Relay{
				{Name: "s2c", FromStream: "sensor", ToStream: "relayin", Deadline: 40_000},
			}},
			{Name: "cl", From: "cell", To: "line", Latency: 2 * testLatency, Relays: []Relay{
				{Name: "c2l", FromStream: "relayin", ToStream: "sink", Deadline: 60_000},
			}},
		},
	}
	for i := range st.Segments {
		st.Segments[i].Cfg.Jitter = profibus.JitterRandom
		st.Segments[i].Cfg.Faults.CycleFailProb = 0.05
	}
	return st
}

// TestTopologyParallelismDeterminism is the core guarantee of the
// sharded topology simulator, mirroring the experiment harness's
// determinism regression: results must be identical whether the
// segments run sequentially, on two workers, or on GOMAXPROCS workers.
// Each segment owns a seed derived from (Seed, segment name) and all
// bridge state is exchanged at round barriers, so worker scheduling
// cannot leak into any draw.
func TestTopologyParallelismDeterminism(t *testing.T) {
	st := noisyTopology()
	run := func(width int) SimResult {
		p := pool.NewShared(width)
		defer p.Close()
		res, err := Simulate(st, SimOptions{Pool: p})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return res
	}
	want := run(1)
	if !want.Converged {
		t.Fatalf("fixture did not converge in %d rounds", want.Rounds)
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Errorf("width %d diverged from sequential:\n got: %+v\nwant: %+v", w, got, want)
		}
	}
}

// TestTopologySeedReachesSegments asserts the master seed actually
// drives the per-segment randomness: changing it changes results, and
// equal seeds reproduce results exactly.
func TestTopologySeedReachesSegments(t *testing.T) {
	st := noisyTopology()
	a, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds produced different results")
	}
	st.Seed = 999
	c, err := Simulate(st, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("changing the seed did not change the results; seed is not reaching the segments")
	}
}

// TestSegmentSeedDistinct guards the per-segment seed derivation:
// distinct segments must draw from distinct RNG streams.
func TestSegmentSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, name := range []string{"A", "B", "plant", "cell", "line", ""} {
		s := segmentSeed(7, name)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %q and %q both map to %d", name, prev, s)
		}
		seen[s] = name
	}
	if segmentSeed(1, "A") == segmentSeed(2, "A") {
		t.Error("segmentSeed ignores the configured Seed")
	}
}

// TestCyclicErrorDeterministic is the regression test for the
// checkAcyclic fix: with several distinct cycles in the relay graph,
// the error Validate reports must not depend on map iteration order.
// Before roots were visited in sorted order, repeated calls named
// whichever cycle the randomised map range reached first.
func TestCyclicErrorDeterministic(t *testing.T) {
	build := func() Topology {
		return Topology{
			Seed: 1,
			Segments: []Segment{
				simSegment("A", ap.DM,
					simStream("s1", 30_000), simStream("s2", 30_000)),
				simSegment("B", ap.DM,
					simStream("t1", 30_000), simStream("t2", 30_000)),
			},
			// Two disjoint cycles: s1→t1→s1 and s2→t2→s2.
			Bridges: []Bridge{
				{Name: "f1", From: "A", To: "B", Latency: 1,
					Relays: []Relay{{Name: "rf1", FromStream: "s1", ToStream: "t1", Deadline: 1_000}}},
				{Name: "b1", From: "B", To: "A", Latency: 1,
					Relays: []Relay{{Name: "rb1", FromStream: "t1", ToStream: "s1", Deadline: 1_000}}},
				{Name: "f2", From: "A", To: "B", Latency: 1,
					Relays: []Relay{{Name: "rf2", FromStream: "s2", ToStream: "t2", Deadline: 1_000}}},
				{Name: "b2", From: "B", To: "A", Latency: 1,
					Relays: []Relay{{Name: "rb2", FromStream: "t2", ToStream: "s2", Deadline: 1_000}}},
			},
		}
	}
	st := build()
	first := st.Validate()
	if first == nil {
		t.Fatal("Validate accepted a cyclic topology")
	}
	for i := 0; i < 100; i++ {
		st := build()
		if err := st.Validate(); err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d: Validate() = %v, want the stable %v", i, err, first)
		}
	}
}
