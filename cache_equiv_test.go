package profirt_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"profirt"
	"profirt/internal/holistic"
	"profirt/internal/workload"
)

// This file holds the equivalence property the analysis cache rests
// on: for any population of networks, topologies and holistic
// configurations, evaluation with a cache — including one cache shared
// by concurrent batch callers, exercised under -race — must produce
// results byte-identical to uncached evaluation. The key is the stream
// list as the analysis sees it, in the caller's order with only the
// names dropped, so equal keys have equal bounds by construction; what
// this checks is the plumbing around the key: names stay out of it yet
// reach the verdicts, and the sharded table serves every input its own
// entry under concurrent callers.

// equivNets draws a varied network population with deliberate repeats:
// the tiling guarantees cache hits (the point of the cache) while the
// distinct prefix guarantees misses.
func equivNets(seed int64, distinct, copies int) []profirt.Network {
	rng := rand.New(rand.NewSource(seed))
	nets := make([]profirt.Network, 0, distinct*copies)
	for i := 0; i < distinct; i++ {
		p := workload.DefaultStreamSetParams()
		p.Masters = 1 + rng.Intn(3)
		p.StreamsPerMaster = 1 + rng.Intn(4)
		p.TTR = profirt.Ticks(1_000 + rng.Intn(4_000))
		if rng.Intn(2) == 0 {
			p.LowPriorityLoad = true
		}
		if rng.Intn(3) == 0 {
			p.MaxJitter = 2_000
		}
		n, _ := workload.StreamSet(rng, p)
		nets = append(nets, n)
	}
	for c := 1; c < copies; c++ {
		nets = append(nets, nets[:distinct]...)
	}
	return nets
}

// TestCacheEquivalenceAnalyzeBatch is the core property: the uncached
// analyses and an Engine whose one shared cache is hammered by
// concurrent AnalyzeNetworks callers must agree result-for-result. Run
// under -race (make ci) this doubles as the data-race gate for the
// shared table.
func TestCacheEquivalenceAnalyzeBatch(t *testing.T) {
	nets := equivNets(17, 48, 3)
	want := refAnalyzeNetworks(nets)

	shared := profirt.NewAnalysisCache(0)
	eng := profirt.NewEngine(profirt.WithParallelism(2), profirt.WithCache(shared))
	defer eng.Close()
	const callers = 4
	got := make([][]profirt.BatchResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			for i := range want {
				if !reflect.DeepEqual(got[w][i], want[i]) {
					t.Fatalf("caller %d: cached result for net %d diverged:\ncached:   %+v\nuncached: %+v", w, i, got[w][i], want[i])
				}
			}
			t.Fatalf("caller %d: cached batch diverged", w)
		}
	}
	s := shared.Stats()
	if s.Hits == 0 {
		t.Errorf("no cache hits on a batch with repeated networks (stats %+v)", s)
	}
	if s.Misses == 0 {
		t.Errorf("no cache misses (stats %+v); the test never exercised population", s)
	}
}

// equivTopology builds a two-segment bridged topology from drawn
// stream-set configs, relaying the first stream of segment A onto the
// first stream of segment B.
func equivTopology(rng *rand.Rand) profirt.Topology {
	seg := func(name string, pol profirt.QueuePolicy) profirt.TopologySegment {
		p := workload.DefaultStreamSetParams()
		p.Masters = 1 + rng.Intn(2)
		p.StreamsPerMaster = 2
		p.TTR = profirt.Ticks(2_000 + rng.Intn(2_000))
		p.Dispatcher = pol
		_, cfg := workload.StreamSet(rng, p)
		for mi := range cfg.Masters {
			for si := range cfg.Masters[mi].Streams {
				cfg.Masters[mi].Streams[si].Name = fmt.Sprintf("%s-m%d-s%d", name, mi, si)
			}
		}
		return profirt.TopologySegment{Name: name, Cfg: cfg}
	}
	policies := []profirt.QueuePolicy{profirt.FCFS, profirt.DM, profirt.EDF}
	a := seg("a", policies[rng.Intn(3)])
	b := seg("b", policies[rng.Intn(3)])
	return profirt.Topology{
		Segments: []profirt.TopologySegment{a, b},
		Bridges: []profirt.Bridge{{
			Name: "ab", From: "a", To: "b",
			Latency: profirt.Ticks(500 + rng.Intn(1_500)),
			Relays: []profirt.Relay{{
				Name:       "r0",
				FromStream: a.Cfg.Masters[0].Streams[0].Name,
				ToStream:   b.Cfg.Masters[0].Streams[0].Name,
				Deadline:   profirt.Ticks(200_000 + rng.Intn(200_000)),
			}},
		}},
	}
}

// TestCacheEquivalenceTopologyBatch extends the property across the
// cross-segment jitter fixed point: uncached topology.Analyze and a
// cached Engine.AnalyzeTopologies must agree on every verdict and
// end-to-end bound, with the cache visibly consulted (the fixed point
// re-analyzes unchanged segments every iteration, so even one topology
// hits).
func TestCacheEquivalenceTopologyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tops := make([]profirt.Topology, 0, 18)
	for i := 0; i < 6; i++ {
		tops = append(tops, equivTopology(rng))
	}
	tops = append(tops, tops[:6]...) // repeats guarantee cross-entry hits
	tops = append(tops, tops[:6]...)

	want := refAnalyzeTopologies(tops)
	cache := profirt.NewAnalysisCache(0)
	eng := profirt.NewEngine(profirt.WithParallelism(4), profirt.WithCache(cache))
	defer eng.Close()
	got, err := eng.AnalyzeTopologies(context.Background(), tops, profirt.TopologyAnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			if fmt.Sprint(want[i].Err) != fmt.Sprint(got[i].Err) {
				t.Fatalf("topology %d: error mismatch: %v vs %v", i, got[i].Err, want[i].Err)
			}
			continue
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("topology %d: cached analysis diverged:\ncached:   %+v\nuncached: %+v", i, got[i], want[i])
		}
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Errorf("no cache hits across the topology batch (stats %+v)", s)
	}
}

// equivHolistic draws a small transaction system in the style of E13.
func equivHolistic(rng *rand.Rand, pol profirt.QueuePolicy) profirt.HolisticConfig {
	cfg := profirt.HolisticConfig{TTR: 1_000, TokenPass: profirt.Ticks(rng.Intn(100))}
	masters := 1 + rng.Intn(2)
	for m := 0; m < masters; m++ {
		spec := profirt.HolisticMaster{Name: fmt.Sprintf("m%d", m), Dispatcher: pol}
		if rng.Intn(2) == 0 {
			spec.LongestLow = profirt.Ticks(300 + rng.Intn(400))
		}
		for x := 0; x < 1+rng.Intn(3); x++ {
			period := profirt.Ticks((2 + rng.Intn(6)) * 10_000)
			spec.Transactions = append(spec.Transactions, profirt.HolisticTransaction{
				Name: fmt.Sprintf("tx%d-%d", m, x),
				Generation: profirt.Task{
					Name: fmt.Sprintf("g%d-%d", m, x),
					C:    profirt.Ticks(200 + rng.Intn(800)),
					D:    period / 2,
					T:    period,
				},
				Stream:   profirt.Stream{Name: fmt.Sprintf("s%d-%d", m, x), Ch: profirt.Ticks(300 + rng.Intn(300)), D: period / 2},
				Delivery: profirt.Ticks(100 + rng.Intn(400)),
				Deadline: period,
			})
		}
		cfg.Masters = append(cfg.Masters, spec)
	}
	return cfg
}

// TestCacheEquivalenceHolistic covers the third composed layer: the
// holistic task/message/delivery fixed point on a cache must converge
// to exactly the uncached result.
func TestCacheEquivalenceHolistic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cache := profirt.NewAnalysisCache(0)
	checked := 0
	for trial := 0; trial < 40; trial++ {
		for _, pol := range []profirt.QueuePolicy{profirt.FCFS, profirt.DM, profirt.EDF} {
			cfg := equivHolistic(rng, pol)
			want, errW := holistic.Analyze(cfg, nil)
			got, errG := holistic.Analyze(cfg, cache)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("trial %d/%v: error mismatch: %v vs %v", trial, pol, errG, errW)
			}
			if errW != nil {
				continue
			}
			checked++
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d/%v: cached holistic result diverged:\ncached:   %+v\nuncached: %+v", trial, pol, got, want)
			}
		}
	}
	if checked < 60 {
		t.Fatalf("only %d holistic configs analysed; generator degenerated", checked)
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Errorf("no holistic cache hits (stats %+v)", s)
	}
}

// TestCachedWarmSpeedup is the runnable form of the perf acceptance
// criterion (BenchmarkAnalyzeCached{Cold,Warm} measure it precisely):
// on a batch of repeated networks, a warmed cache must be at least 2x
// faster than cold evaluation. The margin in practice is an order of
// magnitude — every warm lookup replaces a full DM+EDF fixed point —
// so the 2x assertion stays far from scheduler noise.
func TestCachedWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped with -short")
	}
	// Heavier networks than the equivalence populations: the DM/EDF
	// fixed points grow superlinearly in the stream count while a warm
	// lookup stays a hash over it, so big masters widen the measured
	// gap well past the asserted bound.
	rng := rand.New(rand.NewSource(41))
	nets := make([]profirt.Network, 64)
	for i := range nets {
		p := workload.DefaultStreamSetParams()
		p.Masters, p.StreamsPerMaster = 4, 6
		p.MaxJitter = 2_000
		nets[i], _ = workload.StreamSet(rng, p)
	}
	nets = append(nets, nets...)
	newEngine := func() *profirt.Engine {
		return profirt.NewEngine(profirt.WithParallelism(1), profirt.WithCache(profirt.NewAnalysisCache(0)))
	}
	run := func(eng *profirt.Engine) time.Duration {
		start := time.Now()
		if _, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	warmEng := newEngine()
	defer warmEng.Close()
	run(warmEng) // populate
	cold, warm := time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < 3; rep++ {
		coldEng := newEngine()
		d := run(coldEng)
		coldEng.Close()
		if d < cold {
			cold = d
		}
		if d := run(warmEng); d < warm {
			warm = d
		}
	}
	t.Logf("cold %v, warm %v (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if warm*2 > cold {
		t.Errorf("warm cache not ≥2x faster: cold %v, warm %v", cold, warm)
	}
}

// TestEngineCacheServesAfterExperiments is the regression for a cache
// that stopped serving: after a full-size E11 run — hundreds of
// all-distinct random stream sets — on an Engine with a cache, a
// repeated AnalyzeNetworks batch on the same Engine must still be
// answered from that cache.
func TestEngineCacheServesAfterExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiment run; skipped with -short")
	}
	eng := profirt.NewEngine(profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.RunExperiments(ctx, []string{"E11"}, profirt.ExperimentOptions{}); err != nil {
		t.Fatal(err)
	}
	nets := equivNets(197, 32, 1)
	want := refAnalyzeNetworks(nets)
	for call := 1; call <= 2; call++ {
		before := eng.Stats().Cache
		got, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: cached AnalyzeNetworks diverged from the direct analyses", call)
		}
		if hits := eng.Stats().Cache.Hits - before.Hits; call == 2 && hits == 0 {
			t.Fatalf("repeated batch after E11 recorded no cache hits (stats %+v)", eng.Stats().Cache)
		}
	}
}
