package profirt_test

// The reproduction bench harness: one benchmark per experiment E1–E13
// (`go run ./cmd/experiments -list` prints the index). Each
// BenchmarkE<n> regenerates its experiment's table(s); run with -v to
// see them (logged once per benchmark). The remaining benchmarks
// measure the cost of the analyses and substrates themselves.
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profirt"
	"profirt/internal/ap"
	"profirt/internal/experiments"
	"profirt/internal/fdl"
	"profirt/internal/profibus"
	"profirt/internal/sched"
	"profirt/internal/workload"
)

// benchExperiment runs one experiment per iteration and logs its tables
// once, so `go test -bench BenchmarkE7 -v` regenerates the E7 table.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := experiments.QuickConfig()
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		if i == 0 {
			var sb strings.Builder
			for _, t := range tables {
				sb.WriteString("\n")
				sb.WriteString(t.String())
			}
			b.Log(sb.String())
		}
	}
}

func BenchmarkE1FixedPriorityPreemptive(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2FixedPriorityNonPreemptive(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3EDFDemand(b *testing.B)                  { benchExperiment(b, "E3") }
func BenchmarkE4NonPreemptiveEDFTests(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5EDFResponseTimes(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6TokenCycleBound(b *testing.B)            { benchExperiment(b, "E6") }
func BenchmarkE7FCFSBound(b *testing.B)                  { benchExperiment(b, "E7") }
func BenchmarkE8TTRSetting(b *testing.B)                 { benchExperiment(b, "E8") }
func BenchmarkE9DMMessageRTA(b *testing.B)               { benchExperiment(b, "E9") }
func BenchmarkE10EDFMessageRTA(b *testing.B)             { benchExperiment(b, "E10") }
func BenchmarkE11PolicyComparison(b *testing.B)          { benchExperiment(b, "E11") }
func BenchmarkE12JitterEndToEnd(b *testing.B)            { benchExperiment(b, "E12") }
func BenchmarkE13Holistic(b *testing.B)                  { benchExperiment(b, "E13") }

// benchEngine builds the Engine a benchmark drives, outside the timer,
// and closes it when the benchmark ends.
func benchEngine(b *testing.B, opts ...profirt.EngineOption) *profirt.Engine {
	b.Helper()
	eng := profirt.NewEngine(opts...)
	b.Cleanup(func() { eng.Close() })
	return eng
}

// runQuickExperiments regenerates the full E1–E13 quick suite on eng.
func runQuickExperiments(b *testing.B, eng *profirt.Engine) {
	if _, err := eng.RunExperiments(context.Background(), nil, profirt.ExperimentOptions{Quick: true}); err != nil {
		b.Fatal(err)
	}
}

// benchAllExperiments runs the full E1–E13 suite once per iteration on
// an Engine of the given pool width. Compare the Sequential and
// Parallel variants to see the multi-core speedup of the cell-job
// harness; the produced tables are byte-identical in both.
func benchAllExperiments(b *testing.B, parallelism int) {
	eng := benchEngine(b, profirt.WithParallelism(parallelism))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQuickExperiments(b, eng)
	}
}

func BenchmarkAllExperimentsSequential(b *testing.B) { benchAllExperiments(b, 1) }
func BenchmarkAllExperimentsParallel(b *testing.B) {
	benchAllExperiments(b, runtime.GOMAXPROCS(0))
}

// benchBatchNets draws the network population for the AnalyzeNetworks
// benchmarks.
func benchBatchNets(n int) []profirt.Network {
	rng := rand.New(rand.NewSource(11))
	p := workload.DefaultStreamSetParams()
	p.Masters, p.StreamsPerMaster = 4, 4
	nets := make([]profirt.Network, n)
	for i := range nets {
		nets[i], _ = workload.StreamSet(rng, p)
	}
	return nets
}

// analyzeBench runs one AnalyzeNetworks batch on eng.
func analyzeBench(b *testing.B, eng *profirt.Engine, nets []profirt.Network) {
	if _, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil {
		b.Fatal(err)
	}
}

func benchAnalyzeBatch(b *testing.B, parallelism int) {
	nets := benchBatchNets(256)
	eng := benchEngine(b, profirt.WithParallelism(parallelism))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeBench(b, eng, nets)
	}
}

func BenchmarkAnalyzeBatchSequential(b *testing.B) { benchAnalyzeBatch(b, 1) }
func BenchmarkAnalyzeBatchParallel(b *testing.B)   { benchAnalyzeBatch(b, runtime.GOMAXPROCS(0)) }

// The cached-analysis pair measures the content-addressed memo table
// on a repeated-network batch (every net appears twice). Cold builds a
// fresh cache per iteration, so it pays the full fixed-point cost plus
// hashing; Warm reuses a populated cache, so every DM/EDF analysis is
// a lookup. Both run on a width-1 Engine. Their ratio is the headline
// cache speedup (the acceptance bar is ≥ 2x; TestCachedWarmSpeedup
// asserts it functionally).
func benchCachedNets() []profirt.Network {
	nets := benchBatchNets(128)
	return append(nets, nets...)
}

func BenchmarkAnalyzeCachedCold(b *testing.B) {
	nets := benchCachedNets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := profirt.NewEngine(profirt.WithParallelism(1), profirt.WithCache(profirt.NewAnalysisCache(0)))
		b.StartTimer()
		analyzeBench(b, eng, nets)
		b.StopTimer()
		eng.Close()
		b.StartTimer()
	}
}

func BenchmarkAnalyzeCachedWarm(b *testing.B) {
	nets := benchCachedNets()
	eng := benchEngine(b, profirt.WithParallelism(1), profirt.WithCache(profirt.NewAnalysisCache(0)))
	analyzeBench(b, eng, nets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeBench(b, eng, nets)
	}
}

// benchEngineObs measures the Engine's per-call observability cost on
// a warm-cache AnalyzeNetworks batch — the hottest instrumented path,
// where every job records a run-time histogram sample and every memo
// probe is timed. On and Off differ only in WithObservability;
// TestPerfRules (`make perf-rules`) holds On within 5% ns/op of Off in
// the same run, and TestObservabilityAddsNoAllocations holds the pair's
// allocations per call equal.
func benchEngineObs(b *testing.B, enabled bool) {
	nets := benchCachedNets()
	eng := profirt.NewEngine(
		profirt.WithParallelism(1),
		profirt.WithCache(profirt.NewAnalysisCache(0)),
		profirt.WithObservability(enabled),
	)
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineObsOn(b *testing.B)  { benchEngineObs(b, true) }
func BenchmarkEngineObsOff(b *testing.B) { benchEngineObs(b, false) }

// BenchmarkAllExperimentsCached tracks the cache's effect on the full
// E1–E13 quick suite (compare against BenchmarkAllExperimentsParallel).
// One warm-up pass populates the cache before the timer starts so the
// measurement is a steady-state warm number independent of b.N.
// TestPerfRules (`make perf-rules`) holds it at most 10% slower than
// BenchmarkAllExperimentsSequential in the same run.
func BenchmarkAllExperimentsCached(b *testing.B) {
	eng := benchEngine(b,
		profirt.WithParallelism(runtime.GOMAXPROCS(0)),
		profirt.WithCache(profirt.NewAnalysisCache(0)),
	)
	runQuickExperiments(b, eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQuickExperiments(b, eng)
	}
}

// --- batch simulation + campaign benchmarks ---

// benchSimConfigs draws the simulator population for the SimulateBatch
// pair: many small independent networks with random jitter active, so
// the per-run seed derivation is on the measured path.
func benchSimConfigs(n int) []profirt.SimConfig {
	rng := rand.New(rand.NewSource(17))
	p := workload.DefaultStreamSetParams()
	p.Masters, p.StreamsPerMaster = 2, 3
	p.MaxJitter = 1_000
	cfgs := make([]profirt.SimConfig, n)
	for i := range cfgs {
		_, cfg := workload.StreamSet(rng, p)
		cfg.Horizon = 200_000
		cfgs[i] = cfg
	}
	return cfgs
}

func benchSimulateBatch(b *testing.B, parallelism int) {
	cfgs := benchSimConfigs(32)
	eng := benchEngine(b, profirt.WithParallelism(parallelism))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range out {
			if r.Err != nil || r.Skipped {
				b.Fatalf("run %d: err=%v skip=%v", r.Index, r.Err, r.Skipped)
			}
		}
	}
}

func BenchmarkSimulateBatchSequential(b *testing.B) { benchSimulateBatch(b, 1) }
func BenchmarkSimulateBatchParallel(b *testing.B) {
	benchSimulateBatch(b, runtime.GOMAXPROCS(0))
}

// benchCampaign compiles the examples/campaign manifest — the same
// grid the CI smoke step and the walkthrough run.
func benchCampaign(b *testing.B) *profirt.Campaign {
	c, err := profirt.LoadCampaign("examples/campaign/manifest.json")
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkCampaignColdStore measures a full campaign against a fresh
// store on a GOMAXPROCS-wide Engine: every job simulated and written
// through. Compare with WarmResume below — their ratio is the
// warm-start speedup (acceptance bar: warm measurably faster).
func BenchmarkCampaignColdStore(b *testing.B) {
	c := benchCampaign(b)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := filepath.Join(dir, fmt.Sprintf("cold-%d.jsonl", i))
		store, err := profirt.OpenResultStore(path, c.Hash[:])
		if err != nil {
			b.Fatal(err)
		}
		eng := profirt.NewEngine(profirt.WithStore(store))
		b.StartTimer()
		res, err := eng.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if res.Executed != res.Jobs {
			b.Fatalf("cold run executed %d of %d", res.Executed, res.Jobs)
		}
		eng.Close()
		store.Close()
		b.StartTimer()
	}
}

// BenchmarkCampaignWarmResume measures the same campaign against a
// store that already holds every result: pure restore + reduce.
func BenchmarkCampaignWarmResume(b *testing.B) {
	c := benchCampaign(b)
	path := filepath.Join(b.TempDir(), "warm.jsonl")
	store, err := profirt.OpenResultStore(path, c.Hash[:])
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	eng := benchEngine(b, profirt.WithStore(store))
	if _, err := eng.RunCampaign(context.Background(), c, profirt.CampaignOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Restored != res.Jobs {
			b.Fatalf("warm run restored %d of %d", res.Restored, res.Jobs)
		}
	}
}

// --- Engine concurrent-caller benchmark ---

// BenchmarkEngineConcurrentCallersShared measures M concurrent batch
// submitters hammering the simulation layer through ONE Engine — one
// bounded pool, round-robin admission — so the process runs at most
// the pool width in workers no matter how many callers pile on. The
// pool width is pinned (not GOMAXPROCS) so the bound is visible on any
// host, including single-core CI runners; the peak-goroutines metric
// records it: ~width + M submitters.
func BenchmarkEngineConcurrentCallersShared(b *testing.B) {
	const width = 4
	cfgs := benchSimConfigs(24)
	const callers = 6
	eng := benchEngine(b, profirt.WithParallelism(width))
	var peak atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 5})
				if err != nil {
					b.Error(err)
					return
				}
				for _, r := range out {
					if r.Err != nil || r.Skipped {
						b.Errorf("run %d: err=%v skip=%v", r.Index, r.Err, r.Skipped)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	close(stop)
	sampler.Wait()
	b.ReportMetric(float64(peak.Load()), "peak-goroutines")
}

// --- substrate micro-benchmarks ---

func benchTaskSet(n int) sched.TaskSet {
	rng := rand.New(rand.NewSource(7))
	return sched.SortDM(workload.TaskSet(rng, workload.DefaultTaskSetParams(n, 0.7)))
}

func BenchmarkRTAFixedPriorityPreemptive(b *testing.B) {
	ts := benchTaskSet(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.ResponseTimesFP(ts, sched.FPOptions{Preemptive: true})
	}
}

func BenchmarkRTAFixedPriorityNonPreemptive(b *testing.B) {
	ts := benchTaskSet(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.ResponseTimesFP(ts, sched.FPOptions{})
	}
}

func BenchmarkEDFDemandTest(b *testing.B) {
	ts := benchTaskSet(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.EDFFeasiblePreemptive(ts)
	}
}

func BenchmarkEDFResponseTimesPreemptive(b *testing.B) {
	ts := benchTaskSet(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.ResponseTimesEDFPreemptive(ts)
	}
}

func BenchmarkEDFResponseTimesNonPreemptive(b *testing.B) {
	ts := benchTaskSet(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.ResponseTimesEDFNonPreemptive(ts)
	}
}

func benchStreams(n int) []profirt.Stream {
	rng := rand.New(rand.NewSource(3))
	streams := make([]profirt.Stream, n)
	for i := range streams {
		T := profirt.Ticks(50_000 + rng.Intn(200_000))
		streams[i] = profirt.Stream{
			Name: "s", Ch: 400, D: T - profirt.Ticks(rng.Intn(10_000)), T: T,
			J: profirt.Ticks(rng.Intn(2_000)),
		}
	}
	return streams
}

func BenchmarkDMMessageRTA(b *testing.B) {
	streams := benchStreams(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profirt.DMResponseTimes(streams, 2_500, profirt.DMMessageOptions{})
	}
}

func BenchmarkEDFMessageRTA(b *testing.B) {
	streams := benchStreams(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profirt.EDFMessageResponseTimes(streams, 2_500, profirt.EDFMessageOptions{})
	}
}

func BenchmarkProfibusSimulator(b *testing.B) {
	_, cfg := workload.DCCSCell(ap.DM, 1_000)
	cfg.Horizon = 1_000_000
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := profibus.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range res.PerMaster {
			cycles += m.HighCycles + m.LowCycles
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

func BenchmarkCPUSimulator(b *testing.B) {
	ts := benchTaskSet(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profirt.SimulateCPU(ts, profirt.CPUSimOptions{
			Policy: profirt.EDFPreemptive, Horizon: 1 << 16,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	f := fdl.Frame{Kind: fdl.KindSD2, DA: 9, SA: 1,
		FC: fdl.ReqFC(fdl.FnSRDhigh, true, true), Data: make([]byte, 32)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := f.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := fdl.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPQueue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]ap.Request, 256)
	for i := range reqs {
		r := profirt.Ticks(rng.Intn(100_000))
		reqs[i] = ap.Request{
			Stream: i, Release: r, Ready: r,
			RelDeadline: profirt.Ticks(1 + rng.Intn(50_000)),
			AbsDeadline: r + profirt.Ticks(1+rng.Intn(50_000)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ap.NewQueue(ap.EDF)
		for _, r := range reqs {
			q.Push(r)
		}
		for {
			if _, ok := q.Pop(); !ok {
				break
			}
		}
	}
}
