package profirt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"profirt/internal/campaign"
	"profirt/internal/core"
	"profirt/internal/experiments"
	"profirt/internal/holistic"
	"profirt/internal/memo"
	"profirt/internal/obs"
	"profirt/internal/pool"
	"profirt/internal/profibus"
	"profirt/internal/stats"
	"profirt/internal/topology"
)

// Engine is the context-first facade over every workload in this
// package: schedulability analysis (networks, topologies, holistic),
// simulation (single runs, batches, topologies), durable campaigns and
// the experiment harness. One long-lived Engine owns one bounded worker
// pool and an optional shared AnalysisCache; every method draws on
// those shared resources, so any number of concurrent callers submit
// work to the same pool and are admitted fairly (round-robin at job
// granularity) instead of each spinning GOMAXPROCS private workers and
// oversubscribing the machine. What belongs to one call, such as a
// campaign's ResultStore, goes in that call's options.
//
// Construct with NewEngine and the With* functional options; the zero
// value is not usable. An Engine is safe for concurrent use — that is
// its purpose. All results are byte-identical to the direct internal
// computations (and to each other) at any parallelism: determinism is
// owned by per-job seed derivation and index-keyed result slots, never
// by scheduling order.
//
// Row sinks passed per call (CampaignOptions.RowSink,
// ExperimentOptions.RowSink) run on pool worker goroutines: they must
// be cheap and concurrency-safe. Calling back into the Engine from one
// is safe: the pool detects the re-entrant submission and runs it
// inline on the worker that made it, in index order (see pool.Shared),
// since blocking a worker on work only workers can run would deadlock.
type Engine struct {
	pool  *pool.Shared
	cache *memo.Cache

	// Lifecycle: method calls register with begin/end; Close flips
	// closed under closeMu, then waits for registered calls to drain
	// before releasing the pool. Methods on a closed Engine return
	// ErrEngineClosed instead of reaching the pool (whose post-Close
	// submission path panics — the shared-service failure mode this
	// guards against).
	closeMu  sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	calls    atomic.Int64
	// ops holds the per-method lifetime call counters behind
	// Stats().Ops, indexed by obs.Op.
	ops [obs.NumOps]atomic.Int64

	// obs holds the Engine's latency instrumentation (histograms per
	// op, per pool job, per cache lookup); nil when disabled via
	// WithObservability(false). Timing is observational only and never
	// reaches result bytes — the determinism contract is unchanged.
	obs *obs.Metrics
}

// ErrEngineClosed is returned by every Engine method called after
// Close: a long-lived service draining for shutdown rejects new work
// with this sentinel while in-flight calls complete.
var ErrEngineClosed = errors.New("profirt: engine is closed")

// begin registers one method call with the Engine's lifecycle and
// bumps its op counter; it fails with ErrEngineClosed once Close has
// been called. The returned start time feeds the op's latency
// histogram (zero when observability is off). Every successful begin
// is paired with a deferred end of the same op.
func (e *Engine) begin(op obs.Op) (time.Time, error) {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return time.Time{}, ErrEngineClosed
	}
	e.inflight.Add(1)
	e.calls.Add(1)
	e.ops[op].Add(1)
	if e.obs != nil {
		return e.obs.Clock.Now(), nil
	}
	return time.Time{}, nil
}

func (e *Engine) end(op obs.Op, start time.Time) {
	if e.obs != nil {
		e.obs.Ops[op].Observe(e.obs.Clock.Now().Sub(start))
	}
	e.calls.Add(-1)
	e.inflight.Done()
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine, *engineSetup)

// engineSetup carries construction-only knobs.
type engineSetup struct {
	parallelism int
	noObs       bool
}

// WithParallelism sets the width of the Engine's worker pool — the
// bound on concurrently executing jobs across every caller of this
// Engine (sequential submissions — effective parallelism 1, including
// single-item batches — run inline on their caller and sit outside
// the bound; see pool.Shared). n <= 0 selects runtime.GOMAXPROCS(0).
func WithParallelism(n int) EngineOption {
	return func(_ *Engine, s *engineSetup) { s.parallelism = n }
}

// WithCache installs the shared analysis memo table consulted by every
// analysis the Engine runs (batch, topology, holistic, campaign
// verdicts, experiments). nil disables caching (the default). The
// cache is caller-owned: the Engine never resets or closes it, and it
// may be shared between several Engines.
func WithCache(c *AnalysisCache) EngineOption {
	return func(e *Engine, _ *engineSetup) { e.cache = c }
}

// WithObservability toggles the Engine's latency instrumentation:
// per-op, per-pool-job and per-cache-lookup histograms exported
// through Stats().Latency. Enabled by default — recording is a few
// atomic adds plus two clock reads per unit of work and never
// influences results. Disable only for overhead-sensitive
// micro-benchmarks; span tracing (obs.WithTracer on a call's context)
// is independent of this switch.
func WithObservability(enabled bool) EngineOption {
	return func(_ *Engine, s *engineSetup) { s.noObs = !enabled }
}

// NewEngine builds an Engine: one bounded worker pool (WithParallelism,
// default GOMAXPROCS) plus the shared resources selected by the other
// options. Call Close when done with it to release the pool's worker
// goroutines.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{}
	var s engineSetup
	for _, o := range opts {
		o(e, &s)
	}
	if s.noObs {
		e.pool = pool.NewShared(s.parallelism)
		return e
	}
	e.obs = obs.NewMetrics(nil)
	e.pool = pool.NewSharedObserved(s.parallelism, &e.obs.Pool)
	// The cache is caller-owned and may be shared between Engines; the
	// last Engine to attach wins, which only redirects where lookup
	// latency is recorded, never what lookups return.
	e.cache.SetLatency(&e.obs.Cache)
	return e
}

// Close drains the Engine and releases its worker goroutines: new
// method calls are rejected with ErrEngineClosed the moment Close is
// entered, in-flight calls run to completion, and only then does the
// pool shut down. Close blocks until the drain finishes, is safe to
// call concurrently with method calls from any number of goroutines,
// and is idempotent — a second Close returns nil immediately. The
// cache installed at construction is caller-owned and stays intact.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return nil
	}
	e.closed = true
	e.closeMu.Unlock()
	e.inflight.Wait()
	e.pool.Close()
	return nil
}

// EnginePoolStats re-exports the shared pool's occupancy/counter
// snapshot (see pool.Stats).
type EnginePoolStats = pool.Stats

// EngineOpStats counts completed-or-in-flight calls of each Engine
// method since construction.
type EngineOpStats struct {
	// AnalyzeNetworks .. RunExperiments mirror the method names.
	AnalyzeNetworks   int64
	AnalyzeTopologies int64
	AnalyzeHolistic   int64
	Simulate          int64
	SimulateBatch     int64
	SimulateTopology  int64
	RunCampaign       int64
	RunExperiments    int64
}

// LatencySnapshot is a fixed-bucket latency histogram snapshot (see
// LatencyBucketBounds for the shared bucket layout).
type LatencySnapshot = obs.HistogramSnapshot

// LatencyBucketBounds returns the upper bounds of the finite latency
// histogram buckets shared by every LatencySnapshot, in ascending
// order; Counts[len(bounds)] is the overflow bucket.
func LatencyBucketBounds() []time.Duration { return obs.BucketBounds() }

// EngineOpLatency is one Engine method's latency distribution.
type EngineOpLatency struct {
	// Op is the method's snake_case label (e.g. "analyze_networks"),
	// matching EngineOpStats and the /metrics op labels.
	Op string `json:"op"`
	// Latency is the method's call-duration histogram.
	Latency LatencySnapshot `json:"latency"`
}

// EngineLatencyStats is the histogram half of EngineStats: where the
// counters say how much work ran, these say how long it took and
// where it waited.
type EngineLatencyStats struct {
	// Enabled reports whether the Engine records latency at all
	// (WithObservability). When false every histogram is zero.
	Enabled bool `json:"enabled"`
	// Ops holds one call-duration histogram per Engine method, in the
	// fixed obs.Op order.
	Ops []EngineOpLatency `json:"ops,omitempty"`
	// PoolQueueWait is the submission-enqueue-to-dispatch wait of every
	// worker-run pool job; inline (sequential) jobs never queue and are
	// not counted here.
	PoolQueueWait LatencySnapshot `json:"poolQueueWait"`
	// PoolRun is the execution time of every pool job, worker-run or
	// inline.
	PoolRun LatencySnapshot `json:"poolRun"`
	// CacheLookup times a sample of analysis-cache lookups, hits and
	// misses alike.
	CacheLookup LatencySnapshot `json:"cacheLookup"`
}

// EngineStats is a point-in-time snapshot of the Engine's shared
// resources: pool occupancy and admission counters, per-method call
// counters, latency histograms, and the cache counters when a cache
// is installed (zero otherwise). It is what a serving front end
// exports as its metrics (see internal/serve and cmd/profiserve).
type EngineStats struct {
	// Pool reports the shared worker pool: width, jobs executing at
	// the snapshot instant (occupancy), admission-ring depth, and
	// lifetime submission/job counters.
	Pool EnginePoolStats
	// InFlightCalls is the number of Engine method calls currently
	// between begin and return.
	InFlightCalls int64
	// Ops counts calls per Engine method.
	Ops EngineOpStats
	// Latency holds the Engine's latency histograms (zero when
	// observability is disabled).
	Latency EngineLatencyStats
	// Cache snapshots the shared analysis cache (zero when disabled).
	Cache AnalysisCacheStats
	// Closed reports whether Close has been called.
	Closed bool
}

// Stats snapshots the Engine's pool, cache and call counters.
// Safe to call from any goroutine at any time — including after Close,
// so a draining server can export its final state.
func (e *Engine) Stats() EngineStats {
	e.closeMu.Lock()
	closed := e.closed
	e.closeMu.Unlock()
	return EngineStats{
		Pool:          e.pool.Stats(),
		InFlightCalls: e.calls.Load(),
		Ops: EngineOpStats{
			AnalyzeNetworks:   e.ops[obs.OpAnalyzeNetworks].Load(),
			AnalyzeTopologies: e.ops[obs.OpAnalyzeTopologies].Load(),
			AnalyzeHolistic:   e.ops[obs.OpAnalyzeHolistic].Load(),
			Simulate:          e.ops[obs.OpSimulate].Load(),
			SimulateBatch:     e.ops[obs.OpSimulateBatch].Load(),
			SimulateTopology:  e.ops[obs.OpSimulateTopology].Load(),
			RunCampaign:       e.ops[obs.OpRunCampaign].Load(),
			RunExperiments:    e.ops[obs.OpRunExperiments].Load(),
		},
		Latency: e.latencyStats(),
		Cache:   e.cache.Stats(),
		Closed:  closed,
	}
}

// latencyStats snapshots every histogram the Engine records.
func (e *Engine) latencyStats() EngineLatencyStats {
	if e.obs == nil {
		return EngineLatencyStats{}
	}
	ls := EngineLatencyStats{
		Enabled:       true,
		Ops:           make([]EngineOpLatency, 0, obs.NumOps),
		PoolQueueWait: e.obs.Pool.QueueWait.Snapshot(),
		PoolRun:       e.obs.Pool.Run.Snapshot(),
		CacheLookup:   e.obs.Cache.Lookup.Snapshot(),
	}
	for op := obs.Op(0); int(op) < obs.NumOps; op++ {
		ls.Ops = append(ls.Ops, EngineOpLatency{Op: op.String(), Latency: e.obs.Ops[op].Snapshot()})
	}
	return ls
}

// AnalyzeOptions tunes Engine.AnalyzeNetworks. It has no fields:
// every network gets the revised DM (Eq. 16) and EDF (Eqs. 17–18)
// bounds with the default DMMessageOptions and EDFMessageOptions, and
// the fixed points run to completion (MaxIterations tunes only the
// cross-segment jitter fixed point of TopologyAnalyzeOptions).
type AnalyzeOptions struct{}

// AnalyzeNetworks evaluates the FCFS, DM and EDF schedulability
// analyses for many network configurations on the Engine's shared
// pool. Results are returned in input order (out[i] describes nets[i])
// and are byte-identical at any parallelism. Cancel via ctx to stop
// early; networks not yet evaluated come back with Skipped set. The
// only error is ErrEngineClosed, after Close.
func (e *Engine) AnalyzeNetworks(ctx context.Context, nets []Network, opts AnalyzeOptions) ([]BatchResult, error) {
	start, err := e.begin(obs.OpAnalyzeNetworks)
	if err != nil {
		return nil, err
	}
	defer e.end(obs.OpAnalyzeNetworks, start)
	ctx, sp := obs.StartSpan(ctx, "engine.analyze_networks")
	defer sp.End()
	if ctx == nil {
		ctx = context.Background()
	}
	// Every slot starts Skipped; a dispatched job overwrites its own.
	// Indices the pool never dispatches after cancellation thus come
	// back marked, with no post-pass.
	out := make([]BatchResult, len(nets))
	for i := range out {
		out[i] = BatchResult{Index: i, Skipped: true}
	}
	e.pool.RunJobs(ctx, len(nets), func(jctx context.Context, i int) {
		if ctx.Err() != nil {
			return
		}
		r := BatchResult{Index: i}
		r.FCFS.Schedulable, r.FCFS.Verdicts = core.FCFSSchedulable(nets[i])
		r.DM.Schedulable, r.DM.Verdicts = memo.DMSchedulableCtx(jctx, e.cache, nets[i], core.DMOptions{})
		r.EDF.Schedulable, r.EDF.Verdicts = memo.EDFSchedulableNetCtx(jctx, e.cache, nets[i], core.EDFOptions{})
		out[i] = r
	})
	return out, nil
}

// TopologyAnalyzeOptions tunes Engine.AnalyzeTopologies. The
// per-segment bounds take no options: every master gets the revised
// DM or EDF bound (blocking from low-priority traffic iff it carries
// any) or J plus the FCFS bound, each including the release jitter
// the stream inherits across bridges.
type TopologyAnalyzeOptions struct {
	// MaxIterations caps each topology's cross-segment jitter fixed
	// point; 0 selects the default (64), negative values are rejected.
	MaxIterations int
}

// AnalyzeTopologies analyses many bridged multi-segment configurations
// on the Engine's shared pool, with the same ordering, determinism and
// cancellation contract as AnalyzeNetworks: each composes its
// per-segment analyses across the bridges by jitter inheritance, giving
// per-segment DM/EDF/FCFS verdicts and origin-anchored end-to-end
// bounds per relay. It returns an error only for invalid options;
// per-topology structural errors, the ones SimulateTopology rejects
// too, land in each result's Err field.
func (e *Engine) AnalyzeTopologies(ctx context.Context, tops []Topology, opts TopologyAnalyzeOptions) ([]TopologyBatchResult, error) {
	start, err := e.begin(obs.OpAnalyzeTopologies)
	if err != nil {
		return nil, err
	}
	defer e.end(obs.OpAnalyzeTopologies, start)
	ctx, sp := obs.StartSpan(ctx, "engine.analyze_topologies")
	defer sp.End()
	if opts.MaxIterations < 0 {
		return nil, fmt.Errorf("profirt: AnalyzeTopologies: MaxIterations must be non-negative, got %d", opts.MaxIterations)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	topts := topology.Options{MaxIterations: opts.MaxIterations, Cache: e.cache}
	out := make([]TopologyBatchResult, len(tops))
	for i := range out {
		out[i] = TopologyBatchResult{Index: i, Skipped: true}
	}
	e.pool.RunJobs(ctx, len(tops), func(_ context.Context, i int) {
		if ctx.Err() != nil {
			return
		}
		r := TopologyBatchResult{Index: i}
		r.Result, r.Err = topology.Analyze(tops[i], topts)
		out[i] = r
	})
	return out, nil
}

// AnalyzeHolistic solves the coupled task/message/delivery fixed point
// (Secs. 4.1–4.2 composed with Sec. 2) for cfg. The Engine's shared
// cache memoizes the message-level analyses. The fixed point itself is
// a single sequential computation; ctx is consulted before it starts.
func (e *Engine) AnalyzeHolistic(ctx context.Context, cfg HolisticConfig) (HolisticResult, error) {
	start, err := e.begin(obs.OpAnalyzeHolistic)
	if err != nil {
		return HolisticResult{}, err
	}
	defer e.end(obs.OpAnalyzeHolistic, start)
	_, sp := obs.StartSpan(ctx, "engine.analyze_holistic")
	defer sp.End()
	if ctx != nil && ctx.Err() != nil {
		return HolisticResult{}, ctx.Err()
	}
	return holistic.Analyze(cfg, e.cache)
}

// Simulate runs one PROFIBUS network simulation. A single run is one
// sequential discrete-event computation, so it executes on the calling
// goroutine; use SimulateBatch to fan independent runs across the
// pool. ctx is consulted before the run starts.
func (e *Engine) Simulate(ctx context.Context, cfg SimConfig) (SimResult, error) {
	start, err := e.begin(obs.OpSimulate)
	if err != nil {
		return SimResult{}, err
	}
	defer e.end(obs.OpSimulate, start)
	_, sp := obs.StartSpan(ctx, "engine.simulate")
	defer sp.End()
	if ctx != nil && ctx.Err() != nil {
		return SimResult{}, ctx.Err()
	}
	return profibus.Simulate(cfg)
}

// SimulateOptions tunes Engine.SimulateBatch.
type SimulateOptions struct {
	// Seed is the batch base seed: run i simulates cfgs[i] with its
	// Seed field replaced by Seed ⊕ FNV-1a(i) (SimBatchSeed), unless
	// ConfigSeeds is set.
	Seed int64
	// ConfigSeeds uses each config's Seed verbatim instead of the
	// derived one.
	ConfigSeeds bool
}

// SimulateBatch runs many independent network simulations on the
// Engine's shared pool. Results return in input order (out[i]
// describes cfgs[i]) and are byte-identical at any parallelism
// (per-run seed derivation, see SimulateOptions.Seed); a config the
// simulator rejects lands in its result's Err. Cancel via ctx; runs
// not yet started come back with Skipped set, in-flight ones
// complete. The only error is ErrEngineClosed, after Close.
func (e *Engine) SimulateBatch(ctx context.Context, cfgs []SimConfig, opts SimulateOptions) ([]SimBatchResult, error) {
	start, err := e.begin(obs.OpSimulateBatch)
	if err != nil {
		return nil, err
	}
	defer e.end(obs.OpSimulateBatch, start)
	ctx, sp := obs.StartSpan(ctx, "engine.simulate_batch")
	defer sp.End()
	if ctx == nil {
		ctx = context.Background()
	}
	// Every slot starts Skipped; a dispatched job overwrites its own.
	out := make([]SimBatchResult, len(cfgs))
	for i := range out {
		out[i] = SimBatchResult{Index: i, Skipped: true}
	}
	e.pool.RunJobs(ctx, len(cfgs), func(_ context.Context, i int) {
		if ctx.Err() != nil {
			return
		}
		cfg := cfgs[i]
		if !opts.ConfigSeeds {
			cfg.Seed = profibus.BatchSeed(opts.Seed, i)
		}
		r := SimBatchResult{Index: i}
		r.Result, r.Err = profibus.Simulate(cfg)
		out[i] = r
	})
	return out, nil
}

// TopologySimulateOptions tunes Engine.SimulateTopology.
type TopologySimulateOptions struct {
	// MaxRounds caps the bridge-exchange fixed point (0 selects the
	// default: relay count + 2). A bridge chain that returns to a ring
	// it left may not settle within the default, and the result then
	// reads Converged false.
	MaxRounds int
}

// SimulateTopology runs the sharded multi-segment simulation of t, the
// same Topology AnalyzeTopologies takes, with the per-round segment
// shards executing on the Engine's shared pool.
// Results are byte-identical at any parallelism. Cancelling ctx stops
// the bridge-exchange fixed point at the next round barrier and
// returns ctx.Err(), so a dead client or an expired deadline costs at
// most one round of segment simulations.
func (e *Engine) SimulateTopology(ctx context.Context, t Topology, opts TopologySimulateOptions) (TopologySimResult, error) {
	start, err := e.begin(obs.OpSimulateTopology)
	if err != nil {
		return TopologySimResult{}, err
	}
	defer e.end(obs.OpSimulateTopology, start)
	ctx, sp := obs.StartSpan(ctx, "engine.simulate_topology")
	defer sp.End()
	return topology.Simulate(t, topology.SimOptions{
		Pool:      e.pool,
		Context:   ctx,
		MaxRounds: opts.MaxRounds,
	})
}

// CampaignOptions tunes Engine.RunCampaign.
type CampaignOptions struct {
	// Store is this campaign's durable result store, opened with
	// OpenResultStore for the campaign's Hash (nil runs storeless).
	// Jobs found in it are restored instead of re-executed, and newly
	// executed jobs are written through as they finish. A store opened
	// for another manifest is refused. The caller closes it.
	Store *ResultStore
	// StopAfter, when positive, cancels the campaign after that many
	// newly executed jobs — the deterministic stand-in for kill -9 used
	// by resume tests.
	StopAfter int
	// RowSink, when non-nil, receives each finished table row in grid
	// order, the moment the row's last job settles, concurrently from
	// worker goroutines. A serving front end uses it to direct one
	// request's rows at that request's response stream.
	RowSink func(TableRowEvent)
}

// RunCampaign executes a compiled campaign on the Engine's shared
// pool: jobs found in opts.Store are restored, the rest are simulated
// and written through as they land, and the table assembles with rows
// streaming to opts.RowSink in grid order. The finished table is a
// pure function of the manifest — independent of parallelism,
// interruptions and restores. A store opened for another manifest is
// an error, returned before any job is restored or executed.
func (e *Engine) RunCampaign(ctx context.Context, c *Campaign, opts CampaignOptions) (CampaignRunResult, error) {
	start, err := e.begin(obs.OpRunCampaign)
	if err != nil {
		return CampaignRunResult{}, err
	}
	defer e.end(obs.OpRunCampaign, start)
	ctx, sp := obs.StartSpan(ctx, "engine.run_campaign")
	defer sp.End()
	return c.Run(campaign.RunOptions{
		Pool:      e.pool,
		Context:   ctx,
		Store:     opts.Store,
		Cache:     e.cache,
		RowSink:   opts.RowSink,
		StopAfter: opts.StopAfter,
	})
}

// ExperimentInfo describes one experiment driver.
type ExperimentInfo struct {
	// ID is the experiment key (e.g. "E7").
	ID string
	// Title is a one-line description.
	Title string
	// Anchor names the paper equation/section the experiment validates.
	Anchor string
}

// Experiments lists the available experiment drivers (E1–E13) in index
// order.
func Experiments() []ExperimentInfo {
	all := experiments.All()
	out := make([]ExperimentInfo, len(all))
	for i, ex := range all {
		out[i] = ExperimentInfo{ID: ex.ID, Title: ex.Title, Anchor: ex.Anchor}
	}
	return out
}

// ExperimentOptions tunes Engine.RunExperiments.
type ExperimentOptions struct {
	// Seed drives all randomness; equal seeds reproduce tables exactly.
	// 0 selects the default seed 1, cmd/experiments' default.
	Seed int64
	// Trials is the number of random instances per grid cell; 0 selects
	// the default (40 full-size, 8 with Quick).
	Trials int
	// Quick reduces the parameter grids to smoke-test size.
	Quick bool
	// RowSink, when non-nil, receives each finished row of an
	// experiment's grid tables in grid order, the moment its grid
	// cell's reduction completes, concurrently from worker goroutines.
	// Summary tables an experiment derives after its grid (E6b, E12b)
	// do not stream.
	RowSink func(TableRowEvent)
}

// ExperimentResult is one experiment's outcome.
type ExperimentResult struct {
	// ID, Title and Anchor echo the driver's metadata.
	ID, Title, Anchor string
	// Tables holds the regenerated table(s).
	Tables []*Table
}

// Table re-exports the experiment/campaign result table type.
type Table = stats.Table

// RenderTable writes a table to w in the given format ("plain", "md"
// or "csv").
var RenderTable = stats.Render

// RunExperiments regenerates the reproduction tables for the named
// experiments (nil or empty ids means all of E1–E13) on the Engine's
// shared pool, with the Engine's cache memoizing repeated fixed points
// and finished rows streaming to opts.RowSink. Tables are
// byte-identical at any parallelism. Cancelling ctx abandons cells not
// yet dispatched, so the affected tables come back partial.
func (e *Engine) RunExperiments(ctx context.Context, ids []string, opts ExperimentOptions) ([]ExperimentResult, error) {
	start, err := e.begin(obs.OpRunExperiments)
	if err != nil {
		return nil, err
	}
	defer e.end(obs.OpRunExperiments, start)
	ctx, sp := obs.StartSpan(ctx, "engine.run_experiments")
	defer sp.End()
	cfg := experiments.DefaultConfig()
	if opts.Quick {
		cfg = experiments.QuickConfig()
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Trials > 0 {
		cfg.Trials = opts.Trials
	}
	cfg.Pool = e.pool
	cfg.Context = ctx
	cfg.Cache = e.cache
	cfg.RowSink = opts.RowSink

	var toRun []experiments.Experiment
	if len(ids) == 0 {
		toRun = experiments.All()
	} else {
		for _, id := range ids {
			ex, ok := experiments.ByID(id)
			if !ok {
				return nil, fmt.Errorf("profirt: unknown experiment %q", id)
			}
			toRun = append(toRun, ex)
		}
	}
	out := make([]ExperimentResult, 0, len(toRun))
	for _, ex := range toRun {
		if ctx != nil && ctx.Err() != nil {
			return out, ctx.Err()
		}
		out = append(out, ExperimentResult{
			ID: ex.ID, Title: ex.Title, Anchor: ex.Anchor, Tables: ex.Run(cfg),
		})
	}
	return out, nil
}
