package profirt_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"profirt"
	"profirt/internal/campaign"
	"profirt/internal/core"
	"profirt/internal/experiments"
	"profirt/internal/profibus"
	"profirt/internal/topology"
	"profirt/internal/workload"
)

// This file holds the property the Engine rests on: every Engine
// method must produce results byte-identical to a plain loop of direct
// internal calls — and to itself — at any parallelism. The Engine only
// changes WHERE jobs run (one shared bounded pool with fair
// admission), never WHAT they compute: determinism is owned by per-job
// seed derivation and index-keyed result slots. Run under -race
// (make ci) these tests double as the data-race gate for the shared
// pool.

// enginePar is the parallelism ladder every equivalence property walks.
func enginePar() []int { return []int{1, 2, runtime.GOMAXPROCS(0)} }

// refAnalyzeNetworks is the reference for Engine.AnalyzeNetworks: the
// uncached core analyses, network by network in input order.
func refAnalyzeNetworks(nets []profirt.Network) []profirt.BatchResult {
	out := make([]profirt.BatchResult, len(nets))
	for i, n := range nets {
		r := profirt.BatchResult{Index: i}
		r.FCFS.Schedulable, r.FCFS.Verdicts = core.FCFSSchedulable(n)
		r.DM.Schedulable, r.DM.Verdicts = core.DMSchedulable(n, core.DMOptions{})
		r.EDF.Schedulable, r.EDF.Verdicts = core.EDFSchedulableNet(n, core.EDFOptions{})
		out[i] = r
	}
	return out
}

// refAnalyzeTopologies is the reference for Engine.AnalyzeTopologies:
// topology.Analyze, topology by topology in input order.
func refAnalyzeTopologies(tops []profirt.Topology) []profirt.TopologyBatchResult {
	out := make([]profirt.TopologyBatchResult, len(tops))
	for i, top := range tops {
		r := profirt.TopologyBatchResult{Index: i}
		r.Result, r.Err = topology.Analyze(top, topology.Options{})
		out[i] = r
	}
	return out
}

// refSimulateBatch is the reference for Engine.SimulateBatch: run i is
// profibus.Simulate of cfgs[i] under the derived seed BatchSeed(seed, i).
func refSimulateBatch(cfgs []profirt.SimConfig, seed int64) []profirt.SimBatchResult {
	out := make([]profirt.SimBatchResult, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Seed = profibus.BatchSeed(seed, i)
		r := profirt.SimBatchResult{Index: i}
		r.Result, r.Err = profibus.Simulate(cfg)
		out[i] = r
	}
	return out
}

func TestEngineEquivalenceAnalyzeNetworks(t *testing.T) {
	nets := equivNets(101, 40, 2)
	want := refAnalyzeNetworks(nets)
	for _, p := range enginePar() {
		eng := profirt.NewEngine(profirt.WithParallelism(p))
		got, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: Engine.AnalyzeNetworks diverged from the direct analyses", p)
		}
	}
	// A cached Engine must agree too (cache equivalence is proved in
	// cache_equiv_test.go; here we assert the Engine wires it through).
	eng := profirt.NewEngine(profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	if got, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("cached Engine.AnalyzeNetworks diverged (err=%v)", err)
	}
	if eng.Cache().Stats().Misses == 0 {
		t.Fatal("Engine cache never consulted")
	}
}

func TestEngineEquivalenceAnalyzeTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	tops := make([]profirt.Topology, 0, 12)
	for i := 0; i < 6; i++ {
		tops = append(tops, equivTopology(rng))
	}
	tops = append(tops, tops[:6]...)
	want := refAnalyzeTopologies(tops)
	for _, p := range enginePar() {
		eng := profirt.NewEngine(profirt.WithParallelism(p))
		got, err := eng.AnalyzeTopologies(context.Background(), tops, profirt.TopologyAnalyzeOptions{})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if fmt.Sprint(want[i].Err) != fmt.Sprint(got[i].Err) {
				t.Fatalf("parallelism %d: topology %d error mismatch", p, i)
			}
			if want[i].Err == nil && !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("parallelism %d: Engine.AnalyzeTopologies diverged on topology %d", p, i)
			}
		}
	}
}

func TestEngineRejectsNegativeMaxIterations(t *testing.T) {
	eng := profirt.NewEngine(profirt.WithParallelism(1))
	defer eng.Close()
	if _, err := eng.AnalyzeTopologies(context.Background(), nil, profirt.TopologyAnalyzeOptions{MaxIterations: -1}); err == nil {
		t.Fatal("negative MaxIterations accepted")
	}
}

func TestEngineEquivalenceAnalyzeHolistic(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	eng := profirt.NewEngine(profirt.WithParallelism(2), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	for trial := 0; trial < 10; trial++ {
		cfg := equivHolistic(rng, profirt.DM)
		want, errW := profirt.AnalyzeHolistic(cfg)
		got, errG := eng.AnalyzeHolistic(context.Background(), cfg)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errG, errW)
		}
		if errW == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Engine.AnalyzeHolistic diverged", trial)
		}
	}
}

// equivSimConfigs draws small simulator configurations with jitter
// active, so per-run seed derivation is on the tested path.
func equivSimConfigs(seed int64, n int) []profirt.SimConfig {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]profirt.SimConfig, n)
	for i := range cfgs {
		p := workload.DefaultStreamSetParams()
		p.Masters, p.StreamsPerMaster = 1+rng.Intn(2), 1+rng.Intn(3)
		p.MaxJitter = 1_500
		_, cfg := workload.StreamSet(rng, p)
		cfg.Horizon = 150_000
		cfgs[i] = cfg
	}
	return cfgs
}

func TestEngineEquivalenceSimulateBatch(t *testing.T) {
	cfgs := equivSimConfigs(131, 12)
	want := refSimulateBatch(cfgs, 7)
	for _, p := range enginePar() {
		eng := profirt.NewEngine(profirt.WithParallelism(p))
		got, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 7})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: Engine.SimulateBatch diverged from the direct simulations", p)
		}
	}
	// Single-run methods agree with the batch's per-run seed contract.
	eng := profirt.NewEngine(profirt.WithParallelism(1))
	defer eng.Close()
	cfg := cfgs[3]
	cfg.Seed = profirt.SimBatchSeed(7, 3)
	single, err := eng.Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, want[3].Result) {
		t.Fatal("Engine.Simulate diverged from the batch run of the same config+seed")
	}
}

// engineCampaignManifest is a small grid (2 networks' worth of rows via
// two deadline scales, two policies, two trials).
const engineCampaignManifest = `{
  "name": "engine-equiv",
  "seed": 5,
  "trials": 2,
  "policies": ["fcfs", "dm"],
  "deadlineScales": [1.0, 0.5],
  "networks": [{"name": "cell", "network": {
    "ttr": 2000, "horizon": 250000,
    "masters": [
      {"addr": 1, "streams": [
        {"name": "a", "slave": 30, "high": true, "period": 20000, "deadline": 15000},
        {"name": "b", "slave": 30, "high": true, "period": 50000, "deadline": 40000}]}
    ],
    "slaves": [{"addr": 30, "tsdr": 30}]
  }}]
}`

func TestEngineEquivalenceRunCampaign(t *testing.T) {
	c, err := profirt.ParseCampaign([]byte(engineCampaignManifest))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.Run(campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Table.String()
	for _, p := range enginePar() {
		store, err := profirt.OpenResultStore(
			fmt.Sprintf("%s/c%d.jsonl", t.TempDir(), p), c.Hash[:])
		if err != nil {
			t.Fatal(err)
		}
		eng := profirt.NewEngine(profirt.WithParallelism(p), profirt.WithStore(store))
		res, err := eng.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Table.String(); got != want {
			t.Fatalf("parallelism %d: Engine.RunCampaign table diverged:\n--- engine ---\n%s--- direct ---\n%s", p, got, want)
		}
		if res.Executed != res.Jobs || res.Skipped != 0 {
			t.Fatalf("parallelism %d: unexpected counts %+v", p, res)
		}
		// A second run against the Engine's store restores everything.
		eng2 := profirt.NewEngine(profirt.WithParallelism(p), profirt.WithStore(store))
		warm, err := eng2.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
		eng2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if warm.Restored != warm.Jobs || warm.Table.String() != want {
			t.Fatalf("parallelism %d: warm Engine.RunCampaign diverged (%+v)", p, warm)
		}
		store.Close()
	}
}

func TestEngineEquivalenceRunExperiments(t *testing.T) {
	// One representative message-level experiment, quick size; the
	// direct driver without a pool is the reference.
	want := experimentTables(t, "E7")
	for _, p := range enginePar() {
		eng := profirt.NewEngine(profirt.WithParallelism(p))
		res, err := eng.RunExperiments(context.Background(), []string{"E7"}, profirt.ExperimentOptions{Quick: true})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != "E7" {
			t.Fatalf("parallelism %d: unexpected result set %+v", p, res)
		}
		if got := tableStrings(res[0].Tables); got != want {
			t.Fatalf("parallelism %d: Engine.RunExperiments tables diverged:\n--- engine ---\n%s--- direct ---\n%s", p, got, want)
		}
	}
	eng := profirt.NewEngine(profirt.WithParallelism(1))
	defer eng.Close()
	if _, err := eng.RunExperiments(context.Background(), []string{"E99"}, profirt.ExperimentOptions{Quick: true}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestEngineSharedUseUnderConcurrency drives one Engine from many
// goroutines mixing workloads — the deployment shape the redesign is
// for — and requires every caller to see exactly the sequential
// results. Under -race this is the integration-level data-race gate.
func TestEngineSharedUseUnderConcurrency(t *testing.T) {
	nets := equivNets(139, 24, 2)
	cfgs := equivSimConfigs(149, 8)
	wantNets := refAnalyzeNetworks(nets)
	wantSims := refSimulateBatch(cfgs, 3)

	eng := profirt.NewEngine(profirt.WithParallelism(4), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	const callers = 6
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				got, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
				if err != nil {
					errs[w] = err
				} else if !reflect.DeepEqual(got, wantNets) {
					errs[w] = fmt.Errorf("caller %d: analysis diverged under concurrency", w)
				}
			} else {
				got, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 3})
				if err != nil {
					errs[w] = err
				} else if !reflect.DeepEqual(got, wantSims) {
					errs[w] = fmt.Errorf("caller %d: simulation diverged under concurrency", w)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// experimentTables runs one experiment via the direct driver at quick
// size, without a pool, and renders its tables.
func experimentTables(t *testing.T, id string) string {
	t.Helper()
	ex, ok := experiments.ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	return tableStrings(ex.Run(experiments.QuickConfig()))
}

func tableStrings(tables []*profirt.Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestEngineCancellationMarksSkipped(t *testing.T) {
	nets := equivNets(151, 16, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := profirt.NewEngine(profirt.WithParallelism(2))
	defer eng.Close()
	res, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Skipped || r.Index != i {
			t.Fatalf("result %d not marked skipped after pre-cancel: %+v", i, r)
		}
	}
	if _, err := eng.AnalyzeHolistic(ctx, profirt.HolisticConfig{}); err == nil {
		t.Fatal("AnalyzeHolistic ignored a cancelled context")
	}
	if _, err := eng.Simulate(ctx, profirt.SimConfig{}); err == nil {
		t.Fatal("Simulate ignored a cancelled context")
	}
}

func TestEngineProgressAndRowSink(t *testing.T) {
	c, err := profirt.ParseCampaign([]byte(engineCampaignManifest))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events, rows int
	eng := profirt.NewEngine(
		profirt.WithParallelism(2),
		profirt.WithProgress(func(ev profirt.EngineEvent) {
			mu.Lock()
			if ev.Op == "campaign" {
				events++
			}
			mu.Unlock()
		}),
		profirt.WithRowSink(func(ev profirt.TableRowEvent) {
			mu.Lock()
			rows++
			mu.Unlock()
		}),
	)
	defer eng.Close()
	res, err := eng.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if events != res.Jobs {
		t.Fatalf("progress reported %d events for %d jobs", events, res.Jobs)
	}
	if rows != c.Rows() {
		t.Fatalf("row sink saw %d rows, want %d", rows, c.Rows())
	}
}

// TestEngineReentrantCallbacks pins the documented guarantee that
// callbacks may call back into the Engine: an OnResult callback and a
// WithProgress callback each run AnalyzeNetworks on the same Engine
// from inside a SimulateBatch with more jobs than workers. Every nested
// call is a submission from a pool worker; it must run inline on that
// worker rather than queue behind jobs only the (busy) workers could
// run, so both calls complete, the nested results match a direct call,
// and the pool counts each nested submission as inline.
func TestEngineReentrantCallbacks(t *testing.T) {
	nets := equivNets(181, 6, 1)
	want := refAnalyzeNetworks(nets)
	cfgs := equivSimConfigs(191, 8)

	var eng *profirt.Engine
	var mu sync.Mutex
	var nested int
	var errs []error
	analyze := func(who string) {
		got, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
		mu.Lock()
		defer mu.Unlock()
		nested++
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", who, err))
		} else if !reflect.DeepEqual(got, want) {
			errs = append(errs, fmt.Errorf("%s: nested AnalyzeNetworks diverged from the direct analyses", who))
		}
	}
	eng = profirt.NewEngine(
		profirt.WithParallelism(2),
		profirt.WithProgress(func(ev profirt.EngineEvent) {
			// The nested calls' own "analyze" events must not recurse.
			if ev.Op == "simulate" {
				analyze("progress")
			}
		}),
	)
	defer eng.Close()
	before := eng.Stats().Pool
	res, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{
		Seed:     9,
		OnResult: func(profirt.SimBatchResult) { analyze("OnResult") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, refSimulateBatch(cfgs, 9)) {
		t.Fatal("outer SimulateBatch diverged from the direct simulations")
	}
	for _, err := range errs {
		t.Error(err)
	}
	if want := 2 * len(cfgs); nested != want {
		t.Fatalf("%d nested AnalyzeNetworks calls completed, want %d", nested, want)
	}
	after := eng.Stats().Pool
	if got := after.InlineSubmissions - before.InlineSubmissions; got != int64(nested) {
		t.Fatalf("pool counted %d inline submissions for %d nested calls", got, nested)
	}
	if got := after.Submissions - before.Submissions; got != 1 {
		t.Fatalf("pool admitted %d submissions to its workers, want only the outer batch", got)
	}
}
