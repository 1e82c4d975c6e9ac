package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"profirt"
	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/cpusim"
	"profirt/internal/des"
	"profirt/internal/memo"
	"profirt/internal/obs"
	"profirt/internal/profibus"
	"profirt/internal/sched"
	"profirt/internal/workload"
)

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func timed(f func()) time.Duration {
	t0 := obs.Now()
	f()
	return obs.Now().Sub(t0)
}

// memoLayers measures the cache's two paths on the sample networks: a
// lookup on an empty cache (miss, compute, insert) against the direct
// core call it wraps, then a lookup on a cache holding every sample
// network. Every miss gets its own empty cache because a workload's
// sample may repeat a network.
func memoLayers(ctx context.Context, L map[string]float64, nets []profirt.Network) {
	_, sp := obs.StartSpan(ctx, "bench.memo")
	defer sp.End()
	lookup := func(c *memo.Cache, n profirt.Network) func() {
		return func() {
			memo.DMSchedulable(c, n, core.DMOptions{})
			memo.EDFSchedulableNet(c, n, core.EDFOptions{})
		}
	}
	direct := func(n profirt.Network) func() {
		return func() {
			core.DMSchedulable(n, core.DMOptions{})
			core.EDFSchedulableNet(n, core.EDFOptions{})
		}
	}
	var miss, plain time.Duration
	for i, n := range nets {
		empty := memo.New(0)
		// Alternate which side runs second, on CPU caches the other warmed.
		if i%2 == 0 {
			plain += timed(direct(n))
			miss += timed(lookup(empty, n))
		} else {
			miss += timed(lookup(empty, n))
			plain += timed(direct(n))
		}
	}
	warm := memo.New(0)
	for _, n := range nets {
		lookup(warm, n)()
	}
	m0 := mallocs()
	var hit time.Duration
	for _, n := range nets {
		hit += timed(lookup(warm, n))
	}
	L["memo.hit_allocs"] = float64(mallocs()-m0) / float64(len(nets))
	L["memo.hit_us"] = us(hit) / float64(len(nets))
	L["memo.miss_overhead_us"] = us(miss-plain) / float64(len(nets))
}

// coreLayers times the three message analyses per network.
func coreLayers(ctx context.Context, L map[string]float64, nets []profirt.Network) {
	_, sp := obs.StartSpan(ctx, "bench.core")
	defer sp.End()
	fcfs := make([]float64, len(nets))
	dm := make([]float64, len(nets))
	edf := make([]float64, len(nets))
	m0 := mallocs()
	for i, n := range nets {
		t0 := obs.Now()
		core.FCFSSchedulable(n)
		t1 := obs.Now()
		core.DMSchedulable(n, core.DMOptions{})
		t2 := obs.Now()
		core.EDFSchedulableNet(n, core.EDFOptions{})
		t3 := obs.Now()
		fcfs[i], dm[i], edf[i] = us(t1.Sub(t0)), us(t2.Sub(t1)), us(t3.Sub(t2))
	}
	L["core.allocs_per_net"] = float64(mallocs()-m0) / float64(len(nets))
	L["core.fcfs_us"] = mean(fcfs)
	L["core.dm_us"] = mean(dm)
	L["core.edf_us"] = mean(edf)
	tail := tailPercentile(len(nets))
	L["core.dm_p99_us"] = percentile(dm, tail)
	L["core.edf_p99_us"] = percentile(edf, tail)
}

// simLayers times single simulator runs; a cycle is one token pass or
// one message cycle, as counted in the run's own result.
func simLayers(ctx context.Context, L map[string]float64, cfgs []profirt.SimConfig) error {
	_, sp := obs.StartSpan(ctx, "bench.profibus")
	defer sp.End()
	var total time.Duration
	var cycles int64
	m0 := mallocs()
	for _, c := range cfgs {
		t0 := obs.Now()
		res, err := profibus.Simulate(c)
		total += obs.Now().Sub(t0)
		if err != nil {
			return fmt.Errorf("simulating %d masters: %w", len(c.Masters), err)
		}
		cycles += res.TokenPasses
		for _, m := range res.PerMaster {
			cycles += m.HighCycles + m.LowCycles
		}
	}
	L["profibus.allocs_per_run"] = float64(mallocs()-m0) / float64(len(cfgs))
	L["profibus.sim_us"] = us(total) / float64(len(cfgs))
	L["profibus.ns_per_cycle"] = float64(total) / float64(cycles)
	return nil
}

// kernelOps is how many operations each kernel loop runs.
const kernelOps = 200_000

// kernelLayers runs the hold model on the two simulator kernels: a
// calendar (or queue) of fixed size where every removed item is
// replaced by one due a random delay later.
func kernelLayers(ctx context.Context, L map[string]float64, seed int64) {
	_, sp := obs.StartSpan(ctx, "bench.kernels")
	defer sp.End()
	rng := rand.New(rand.NewSource(seedFor(seed, "kernels", 0)))
	delays := make([]des.Ticks, 4096)
	for i := range delays {
		delays[i] = des.Ticks(1 + rng.Int63n(10_000))
	}

	var eng des.Engine
	fired := 0
	eng.SetDispatch(func(p des.Payload) {
		fired++
		if fired <= kernelOps-64 {
			eng.SchedulePayloadAfter(delays[fired%len(delays)], p)
		}
	})
	for i := range 64 {
		eng.SchedulePayload(delays[i], 0, des.Payload{X: int32(i)})
	}
	d := timed(func() { eng.Run(1 << 62) })
	L["des.event_ns"] = float64(d) / float64(eng.Processed)

	q := ap.NewQueue(ap.EDF)
	for i := range 64 {
		q.Push(ap.Request{Stream: i, RelDeadline: delays[i], AbsDeadline: delays[i]})
	}
	d = timed(func() {
		for i := range kernelOps {
			r, _ := q.Pop()
			r.AbsDeadline += delays[i%len(delays)]
			q.Push(r)
		}
	})
	L["ap.op_ns"] = float64(d) / float64(2*kernelOps)
}

// taskLayers times the single-processor analyses and simulator of the
// paper's Section 2 on random task sets drawn from the seed.
func taskLayers(ctx context.Context, L map[string]float64, seed int64) error {
	_, sp := obs.StartSpan(ctx, "bench.sched")
	defer sp.End()
	rng := rand.New(rand.NewSource(seedFor(seed, "tasksets", 0)))
	sets := make([]sched.TaskSet, 100)
	for i := range sets {
		sets[i] = workload.TaskSet(rng, workload.DefaultTaskSetParams(8, 0.7))
	}
	var fp, edf, sim time.Duration
	for _, ts := range sets {
		fp += timed(func() { sched.ResponseTimesFP(ts, sched.FPOptions{}) })
		edf += timed(func() { sched.EDFFeasiblePreemptive(ts) })
		var err error
		sim += timed(func() {
			_, err = cpusim.Run(ts, cpusim.Options{Policy: cpusim.FPNonPreemptive, Horizon: 100_000})
		})
		if err != nil {
			return fmt.Errorf("cpusim: %w", err)
		}
	}
	n := float64(len(sets))
	L["sched.fp_rta_us"] = us(fp) / n
	L["sched.edf_demand_us"] = us(edf) / n
	L["cpusim.sim_us"] = us(sim) / n
	return nil
}

// experimentLayers runs E1–E13 once each, one RunExperiments call per
// ID on one fresh cached Engine, as the experiments command does. It
// returns the Engine's counters before and after. The program runs
// untraced here: span tracing of every pool job would inflate the
// per-experiment times the suite's wall time is compared with.
func experimentLayers(ctx context.Context, e *env, L map[string]float64) (before, after profirt.EngineStats, err error) {
	eng := profirt.NewEngine(profirt.WithParallelism(e.conns), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	before = eng.Stats()
	for _, x := range profirt.Experiments() {
		_, sp := obs.StartSpan(ctx, "bench.experiments."+x.ID)
		t0 := obs.Now()
		_, err = eng.RunExperiments(context.Background(), []string{x.ID}, profirt.ExperimentOptions{Seed: e.seed})
		L["experiments."+x.ID+"_s"] = obs.Now().Sub(t0).Seconds()
		sp.End()
		if err != nil {
			return before, after, err
		}
	}
	return before, eng.Stats(), nil
}
