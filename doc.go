// Package profirt is a Go reproduction of "From Task Scheduling in
// Single Processor Environments to Message Scheduling in a PROFIBUS
// Fieldbus Network" (Tovar & Vasques, IPPS/SPDP 1999 Workshops).
//
// It provides, as one coherent library:
//
//   - the single-processor schedulability analyses the paper surveys
//     (rate/deadline-monotonic and EDF, preemptive and non-preemptive,
//     utilisation tests, response-time analyses, processor-demand
//     feasibility tests);
//   - a bit-time-accurate discrete-event simulator of the PROFIBUS
//     timed-token MAC (DIN 19245 framing, T_TR/T_RR/T_TH timers, high/
//     low-priority queues, retries) together with the paper's proposed
//     application-process priority-queue architecture;
//   - the paper's message schedulability analyses: the token-cycle
//     bound T_cycle = T_TR + T_del, the FCFS bound R = nh·T_cycle, the
//     Eq. 15 rule for setting T_TR, and the DM/EDF message response-
//     time analyses with release jitter. As in the paper, the message
//     bounds are the task analyses applied to each stream mapped to the
//     task {C = T_cycle, D, T, J}, on the one fixed-priority kernel and
//     the one per-offset EDF kernel of internal/sched, which the task
//     analyses (jitter included) run too; a busy period or iterate
//     reaching 1<<40 yields MaxTicks;
//   - the Sec. 4.2 end-to-end composition E = g + Q + C + d under one
//     anchor rule: every per-hop bound of a chain is measured from the
//     nominal release of the chain's origin and includes the jitter
//     the hop inherits (J + nh·T_cycle under FCFS, the DM/EDF bounds
//     natively), with inherited jitter capped at 1<<40.
//     AnalyzeHolistic solves the task → message → delivery chain as a
//     fixed point, giving the delivery task the message bound as
//     release jitter, and ComposeEndToEnd subtracts g once from the
//     origin-anchored message bound: Q = max(0, R − g − C);
//   - workload generators and the experiment harness that validates
//     every analysis against simulation (E1–E13; README's "Running"
//     section runs them, and `experiments -list` names them). The
//     harness evaluates independent grid cells on the Engine's bounded
//     worker pool (WithParallelism, default GOMAXPROCS) with per-cell
//     deterministic RNG seeding; high-trial cells further split into
//     per-trial sub-jobs with per-trial derived seeds
//     (cellSeed ⊕ FNV(trial)), so tables are byte-identical at any
//     parallelism; Engine.AnalyzeNetworks offers the same concurrent,
//     cancellable evaluation for the message-level analyses;
//   - analysis memoization: an AnalysisCache is one table mapping the
//     encoding of (analysis kind, T_cycle, options, each stream's
//     (Ch, D, T, J) in the caller's order, names excluded) to the
//     computed DM/EDF bounds, so repeated fixed points across batch
//     entries, topology iterations, holistic rounds and experiment
//     sweeps are solved once. Opt in via WithCache on an Engine,
//     TopologyOptions.Cache or HolisticConfig.Cache; results are
//     byte-identical with or without a cache (property-tested), the
//     table is sharded and safe to share between concurrent callers,
//     and memory is bounded with random-replacement eviction. A
//     64-bit hash of the encoding picks the slot and every hit is
//     confirmed byte for byte against the stored encoding, so a miss
//     costs one hash and one probe and all-distinct batches pay little
//     for the cache;
//   - batch simulation: Engine.SimulateBatch fans many independent
//     network simulations across the shared bounded worker pool with
//     per-run seeds Seed ⊕ FNV-1a(index), so a batch is a pure
//     function of (configs, base seed) — byte-identical at any
//     parallelism — with context cancellation and per-run completion
//     callbacks;
//   - durable sweep campaigns: a JSON manifest describing a grid of
//     networks × deadline scales × dispatching policies × trials
//     compiles (internal/campaign) into content-addressed jobs — each
//     key the SHA-256 of its fully resolved simulator configuration —
//     executed via Engine.RunCampaign and written through a ResultStore,
//     an append-only, integrity-hashed JSONL file. A killed campaign
//     resumes from its completed jobs, a repeated campaign against the
//     same store is warm-started, and in both cases the assembled
//     table is byte-identical to an uninterrupted run. Table rows
//     stream through a grid-ordered sink (the same row-streaming
//     assembly the experiment harness uses) the moment each row's last
//     job settles. cmd/campaign exposes run/resume/status;
//   - multi-segment topologies: several token rings coupled by
//     store-and-forward bridges that relay selected high-priority
//     streams across rings. A relayed stream inherits its source's
//     period, and its release jitter is the source's response bound
//     plus the bridge latency (the paper's Sec. 4.1 jitter-inheritance
//     model applied across rings), so the target's jitter-inclusive
//     bound is an origin-anchored end-to-end bound under the same
//     anchor rule and jitter cap. AnalyzeTopology
//     solves that composition as a fixed point over the (validated
//     acyclic) relay graph; Engine.SimulateTopology shards the
//     simulator per segment on the shared worker pool, exchanging
//     relayed releases at bridge points between rounds, with
//     per-segment derived seeds so results are byte-identical at any
//     parallelism; Engine.AnalyzeTopologies sweeps whole topologies
//     concurrently.
//
// Bridge semantics: a bridge watches one high-priority stream on its
// source ring; every successfully completed cycle of that stream
// releases one request of the designated stream on the destination
// ring, Latency bit times later. The destination stream's own periodic
// release pattern is replaced by the relayed one, and each relay
// carries an end-to-end deadline anchored at the nominal release of the
// chain's origin stream. Relay chains may span any number of rings but
// must be acyclic.
//
// # The Engine facade
//
// The front door to all of the above is the Engine: one long-lived
// value constructed with functional options
//
//	eng := profirt.NewEngine(
//	    profirt.WithParallelism(8),                      // pool width (default GOMAXPROCS)
//	    profirt.WithCache(profirt.NewAnalysisCache(0)),  // shared RTA memo table
//	    profirt.WithStore(store),                        // durable campaign results
//	    profirt.WithRowSink(sink),                       // streamed table rows
//	    profirt.WithProgress(progress),                  // per-job events
//	)
//	defer eng.Close()
//
// owning a single bounded worker pool that every workload shares:
// N concurrent callers are admitted round-robin at job granularity
// onto one worker set instead of each spinning GOMAXPROCS private
// goroutines. Every batch workload has exactly one entry point, a
// context-first Engine method, byte-identical at any parallelism to a
// plain loop of the single-analysis primitives:
//
//	workload                 Engine method
//	----------------------   ------------------------------------------------------
//	network analyses         Engine.AnalyzeNetworks(ctx, nets, AnalyzeOptions)
//	topology analyses        Engine.AnalyzeTopologies(ctx, tops, TopologyAnalyzeOptions)
//	holistic fixed point     Engine.AnalyzeHolistic(ctx, cfg)
//	one simulation           Engine.Simulate(ctx, cfg)
//	simulation batch         Engine.SimulateBatch(ctx, cfgs, SimulateOptions)
//	topology simulation      Engine.SimulateTopology(ctx, t, TopologySimulateOptions)
//	campaign                 Engine.RunCampaign(ctx, c, CampaignOptions)
//	experiments E1–E13       Engine.RunExperiments(ctx, ids, ExperimentOptions)
//
// The shared knobs (pool width, cache, store, row sink, progress) are
// configured once on the Engine; the per-call options structs keep
// only what genuinely varies per call (DM/EDF tunables, seeds,
// iteration caps). The single-analysis primitives that never touch a
// pool (Simulate, AnalyzeTopology, AnalyzeHolistic, DMResponseTimes,
// …) stay available as plain functions.
//
// The Engine has a defined lifecycle. Close drains: new calls are
// rejected with ErrEngineClosed, in-flight calls run to completion,
// and only then is the pool released — a call racing Close either
// returns full results or ErrEngineClosed, never a panic or a partial
// batch. Close is idempotent. Stats snapshots the shared machinery
// (pool occupancy and queue depth, per-method call counters, cache
// hits/misses/evictions, store size and compactions) at any time,
// including after Close.
//
// # Serving the Engine
//
// cmd/profiserve wraps one shared Engine in an HTTP/JSON server
// (implementation in internal/serve). Request bodies reuse the
// internal/configfile JSON schemas verbatim; responses are
// byte-identical to encoding a direct Engine call's results through
// the same wire types, a property the serve load test holds under
// hundreds of concurrent clients. Endpoints: /v1/analyze/networks,
// /v1/analyze/topologies, /v1/simulate/batch, /v1/simulate/topology,
// and /v1/campaign, which streams NDJSON — one "row" event per
// finished table row in grid order, then a "done" event carrying the
// assembled table. Request deadlines (a timeoutMs body field) and
// client disconnects map to context cancellation; per-client
// in-flight caps return 429; /metrics exports the Engine.Stats
// snapshot plus the server's admission counters as Prometheus text or
// JSON; SIGINT/SIGTERM drain gracefully (intake stops, in-flight
// requests finish, the Engine closes, exit 0).
//
// # Performance
//
// The hot paths are allocation-flattened, and every reuse is pinned by
// the byte-identity equivalence suites under -race: the DM/EDF/FCFS
// fixed-point iterations and the holistic per-master state run on
// sync.Pool-backed scratch buffers; the PROFIBUS simulator and the DES
// core pool event and trace storage across trials with explicit Reset
// paths (value-typed event heap, head-indexed FIFO queues); the
// analysis cache is one table of per-master DM/EDF bounds keyed by the
// stream list's encoding and confirmed byte for byte, so a lookup, hit
// or miss, costs the encoding, one hash and one probe, and a holistic
// or topology analysis repeated on one cache re-runs its fixed point
// with every bound served from the table. Performance is compared
// between commits by the bench/ module (bench/run.sh -collect and
// -compare); `make perf-rules` checks, within one run, that the cached
// experiments suite is at most 10% slower than the sequential one and
// that the instrumented Engine stays within 5% of the uninstrumented
// one. See the README's "Performance" and "Benchmarks" sections.
//
// # Observability
//
// internal/obs instruments the whole stack without touching results:
// log-spaced latency histograms on atomic counters record every
// Engine op, pool job (queue wait and run time separately), memoized
// cache lookup and serve endpoint, surfaced through Engine.Stats
// (EngineStats.Latency) and rendered as Prometheus histogram series
// on /metrics; an obs.Tracer carried in the context records
// request-scoped spans (engine.<op>, pool.submit/pool.job,
// memo.lookup, campaign.run/campaign.row, topology.round) and exports
// Chrome trace_event JSON (profiserve -trace-dir writes one file per
// request keyed by X-Request-ID; cmd/campaign -trace traces a whole
// campaign run); profiserve additionally serves net/http/pprof on a
// separate -debug-addr listener and emits structured log/slog access
// records with -log. The governing invariant: timing never influences
// result bytes. internal/obs is the only package permitted to read
// time.Now (enforced by the detrand analyzer); every other layer
// receives an injected obs.Clock, the byte-identity suites run with
// instrumentation enabled, `make perf-rules` holds the instrumented
// Engine to within 5% of the uninstrumented one, and
// TestObservabilityAddsNoAllocations to zero extra allocations per
// call.
//
// # Static analysis
//
// The invariants above — determinism at any parallelism, bounded
// concurrency, context threading — are enforced statically by the
// repo's own go/analysis suite (internal/lint, built into
// cmd/profilint, run by `make lint` and CI): detrand forbids
// time.Now() outside internal/obs module-wide and unseeded global
// math/rand draws in result-producing packages, so results stay a
// pure function of (config, seed); mapiter
// forbids map-iteration-order-dependent output (unsorted appends,
// writes to output/hash sinks, early returns of iteration-dependent
// values inside a map range); poolgo confines raw go statements to
// internal/pool, keeping all concurrency on the bounded pool; ctxthread
// requires functions receiving a context.Context to thread it, pinning
// Background()/TODO()/nil contexts to mains, tests and the documented
// nil-ctx default sites; seedmix requires per-job seeds to derive
// through the FNV mix helpers rather than ad-hoc arithmetic. Findings
// are suppressed site-by-site with `//profilint:ignore <analyzer>
// <reason>`, and a missing reason is itself an error. See the README's
// "Static analysis" section and CONTRIBUTING.md.
//
// This root package is a facade: it re-exports the library's primary
// types and entry points so downstream users need a single import. The
// implementation lives in internal packages (one per subsystem); the
// runnable entry points live under cmd/ and examples/. The exported
// surface is pinned in testdata/api.golden (make apicheck).
package profirt
