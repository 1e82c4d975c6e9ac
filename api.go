package profirt

import (
	"profirt/internal/ap"
	"profirt/internal/campaign"
	"profirt/internal/core"
	"profirt/internal/cpusim"
	"profirt/internal/fdl"
	"profirt/internal/holistic"
	"profirt/internal/memo"
	"profirt/internal/profibus"
	"profirt/internal/sched"
	"profirt/internal/stats"
	"profirt/internal/timeunit"
	"profirt/internal/topology"
)

// Ticks is the integer time base: one tick is one bit time at the
// configured baud rate for the PROFIBUS APIs, or an arbitrary quantum
// for the task-level APIs.
type Ticks = timeunit.Ticks

// MaxTicks marks divergent/unschedulable results.
const MaxTicks = timeunit.MaxTicks

// Task-level schedulability analysis (the paper's Section 2 survey).
type (
	// Task is a periodic/sporadic task with C, D, T, J, B attributes.
	Task = sched.Task
	// TaskSet is a priority-ordered task collection.
	TaskSet = sched.TaskSet
	// FPOptions tunes fixed-priority response-time analysis.
	FPOptions = sched.FPOptions
	// EDFOptions tunes the EDF response-time analyses.
	EDFOptions = sched.EDFOptions
	// FeasibilityReport carries demand-test outcomes.
	FeasibilityReport = sched.FeasibilityReport
)

// Fixed-priority and EDF analysis entry points (Section 2).
var (
	// SortRM orders a task set rate-monotonically.
	SortRM = sched.SortRM
	// SortDM orders a task set deadline-monotonically.
	SortDM = sched.SortDM
	// LiuLaylandBound is n(2^{1/n}−1).
	LiuLaylandBound = sched.LiuLaylandBound
	// ResponseTimesFP is the (non-)preemptive fixed-priority RTA.
	ResponseTimesFP = sched.ResponseTimesFP
	// FPSchedulable checks R_i <= D_i under ResponseTimesFP.
	FPSchedulable = sched.FPSchedulable
	// EDFFeasiblePreemptive is the Eq. 3 processor-demand test.
	EDFFeasiblePreemptive = sched.EDFFeasiblePreemptive
	// EDFFeasibleNonPreemptiveZS is the Eq. 4 Zheng–Shin test.
	EDFFeasibleNonPreemptiveZS = sched.EDFFeasibleNonPreemptiveZS
	// EDFFeasibleNonPreemptiveGeorge is the Eq. 5 refined test.
	EDFFeasibleNonPreemptiveGeorge = sched.EDFFeasibleNonPreemptiveGeorge
	// ResponseTimesEDFPreemptive is Spuri's analysis (Eqs. 6–8).
	ResponseTimesEDFPreemptive = sched.ResponseTimesEDFPreemptive
	// ResponseTimesEDFNonPreemptive is George et al.'s (Eqs. 9–10).
	ResponseTimesEDFNonPreemptive = sched.ResponseTimesEDFNonPreemptive
)

// PROFIBUS message scheduling (the paper's contribution, Sections 3–4).
type (
	// Stream is a high-priority message stream (C_hi, D, T, J).
	Stream = core.Stream
	// Master is one master station's traffic model.
	Master = core.Master
	// Network is the analysed PROFIBUS configuration.
	Network = core.Network
	// StreamVerdict pairs a stream with its bound and verdict.
	StreamVerdict = core.StreamVerdict
	// DMMessageOptions tunes the Eq. 16 analysis.
	DMMessageOptions = core.DMOptions
	// EDFMessageOptions tunes the Eqs. 17–18 analysis.
	EDFMessageOptions = core.EDFOptions
	// EndToEnd decomposes E = g + Q + C + d (Sec. 4.2).
	EndToEnd = core.EndToEnd
)

// Message-level analysis entry points (Sections 3–4).
var (
	// FCFSResponseTime is Eq. 11: R = nh·T_cycle.
	FCFSResponseTime = core.FCFSResponseTime
	// FCFSSchedulable is the Eq. 12 network test.
	FCFSSchedulable = core.FCFSSchedulable
	// MaxTTR is the Eq. 15 rule for setting T_TR.
	MaxTTR = core.MaxTTR
	// DMResponseTimes is the Eq. 16 analysis (literal or revised).
	DMResponseTimes = core.DMResponseTimes
	// DMSchedulable applies Eq. 16 across a network.
	DMSchedulable = core.DMSchedulable
	// EDFMessageResponseTimes is the Eqs. 17–18 analysis.
	EDFMessageResponseTimes = core.EDFResponseTimes
	// EDFSchedulableNet applies Eqs. 17–18 across a network.
	EDFSchedulableNet = core.EDFSchedulableNet
	// ComposeEndToEnd builds the Sec. 4.2 decomposition.
	ComposeEndToEnd = core.Compose
)

// PROFIBUS simulation substrate.
type (
	// BusParams carries DIN 19245 timing parameters.
	BusParams = fdl.BusParams
	// Frame is an FDL frame (SD1/SD2/SD3/token/short-ack).
	Frame = fdl.Frame
	// SimConfig configures a network simulation.
	SimConfig = profibus.Config
	// SimMasterConfig describes one simulated master.
	SimMasterConfig = profibus.MasterConfig
	// SimStreamConfig describes one simulated stream.
	SimStreamConfig = profibus.StreamConfig
	// SimSlaveConfig describes a responder.
	SimSlaveConfig = profibus.SlaveConfig
	// SimResult is a simulation outcome.
	SimResult = profibus.Result
	// QueuePolicy selects the AP dispatcher (FCFS/DM/EDF).
	QueuePolicy = ap.Policy
	// SimJitterMode selects the release-jitter realisation.
	SimJitterMode = profibus.JitterMode
)

// Release-jitter realisations for SimConfig.Jitter.
const (
	// SimJitterNone releases at nominal instants.
	SimJitterNone = profibus.JitterNone
	// SimJitterRandom delays readiness uniformly in [0, J].
	SimJitterRandom = profibus.JitterRandom
	// SimJitterAdversarial delays only the first release by the full J.
	SimJitterAdversarial = profibus.JitterAdversarial
)

// AP dispatching policies for SimMasterConfig.Dispatcher.
const (
	// FCFS reproduces the stock PROFIBUS outgoing queue.
	FCFS = ap.FCFS
	// DM enables the paper's architecture with a DM-ordered AP queue.
	DM = ap.DM
	// EDF enables the paper's architecture with an EDF-ordered queue.
	EDF = ap.EDF
)

// Simulation entry points.
var (
	// DefaultBusParams is a representative 500 kbit/s parameter set.
	DefaultBusParams = fdl.DefaultBusParams
	// Simulate runs the PROFIBUS network simulator.
	Simulate = profibus.Simulate
)

// Batch simulation (Engine.SimulateBatch): run i simulates cfgs[i]
// with its seed replaced by Seed ⊕ FNV-1a(i) (SimBatchSeed) unless
// SimulateOptions.ConfigSeeds is set, so a batch is a pure function of
// (configs, base seed) and byte-identical at any parallelism.
type (
	// SimBatchResult is Engine.SimulateBatch's outcome for one
	// configuration.
	SimBatchResult = profibus.BatchResult
)

// SimBatchSeed derives run index's seed from the batch base seed.
var SimBatchSeed = profibus.BatchSeed

// Single-processor simulation substrate (validating Section 2).
type (
	// CPUPolicy selects the uniprocessor scheduling discipline.
	CPUPolicy = cpusim.Policy
	// CPUSimOptions configures a uniprocessor simulation.
	CPUSimOptions = cpusim.Options
	// CPUSimResult is its outcome.
	CPUSimResult = cpusim.Result
)

// Uniprocessor disciplines.
const (
	// FPPreemptive is preemptive fixed-priority dispatching.
	FPPreemptive = cpusim.FPPreemptive
	// FPNonPreemptive is non-preemptive fixed-priority dispatching.
	FPNonPreemptive = cpusim.FPNonPreemptive
	// EDFPreemptive is preemptive EDF dispatching.
	EDFPreemptive = cpusim.EDFPreemptive
	// EDFNonPreemptive is non-preemptive EDF dispatching.
	EDFNonPreemptive = cpusim.EDFNonPreemptive
)

// SimulateCPU runs the uniprocessor scheduling simulator.
var SimulateCPU = cpusim.Run

// Holistic end-to-end analysis (Sec. 4.1–4.2 composed with Sec. 2).
type (
	// HolisticConfig describes transactions (generation task, message
	// stream, delivery cost, end-to-end deadline) per master.
	HolisticConfig = holistic.Config
	// HolisticMaster is one master's transactions and dispatcher.
	HolisticMaster = holistic.MasterSpec
	// HolisticTransaction is one sensor-to-actuator transaction.
	HolisticTransaction = holistic.Transaction
	// HolisticResult is the fixed-point outcome with per-transaction
	// end-to-end breakdowns.
	HolisticResult = holistic.Result
)

// AnalyzeHolistic solves the coupled task/message/delivery fixed point.
var AnalyzeHolistic = holistic.Analyze

// Content-addressed analysis memoization. An AnalysisCache maps a
// canonical hash of (normalized stream multiset, T_cycle, analysis
// kind, options) to the computed response-time bounds, so repeated
// fixed points — across batch entries, topology iterations, holistic
// rounds and experiment sweeps — are solved once. Caching is opt-in
// (WithCache on an Engine, TopologyOptions.Cache, HolisticConfig.Cache)
// and results are byte-identical with or without a cache; the
// cache_equiv_test.go property test enforces that. Memory is bounded
// (NewAnalysisCache's maxEntries, default 1<<16 entries with random
// replacement); a cache is safe to share between any number of
// concurrent callers.
type (
	// AnalysisCache is the shared, sharded, bounded result cache.
	AnalysisCache = memo.Cache
	// AnalysisCacheStats is a point-in-time hit/miss/eviction snapshot.
	AnalysisCacheStats = memo.Stats
)

// NewAnalysisCache builds a cache bounded to maxEntries results (<= 0
// selects the default 1<<16).
var NewAnalysisCache = memo.New

// Durable result persistence. A ResultStore is the disk-backed sibling
// of AnalysisCache: an append-only, integrity-hashed JSONL file mapping
// content addresses to result payloads, surviving process death. The
// campaign engine writes every completed job through it, so a killed
// sweep resumes from its completed work and a repeated sweep against
// the same store is warm-started. Torn or corrupted lines (a kill
// mid-write) are dropped at open — they only cost a recomputation. A
// store is bound at creation to the meta bytes it was opened with (the
// campaign manifest hash); reopening under different meta fails.
type (
	// ResultStore is the disk-backed content-addressed result store.
	ResultStore = memo.Store
	// ResultStoreStats is a point-in-time store counter snapshot.
	ResultStoreStats = memo.StoreStats
)

// OpenResultStore opens (or creates) the store at path, bound to meta.
var OpenResultStore = memo.OpenStore

// Durable sweep campaigns: a JSON manifest describing a grid of
// networks × deadline scales × dispatching policies × trials compiles
// into content-addressed simulation jobs executed via Engine.RunCampaign,
// with results written through a ResultStore and table rows streamed
// in grid order as they complete. See internal/campaign for the model
// and cmd/campaign for the CLI (run/resume/status).
type (
	// Campaign is a compiled sweep-campaign manifest.
	Campaign = campaign.Campaign
	// CampaignManifest is the JSON manifest schema.
	CampaignManifest = campaign.Manifest
	// CampaignNetworkSpec names one swept network (inline or by file).
	CampaignNetworkSpec = campaign.NetworkSpec
	// CampaignJob is one compiled unit of campaign work.
	CampaignJob = campaign.Job
	// CampaignRunResult summarizes one Campaign.Run.
	CampaignRunResult = campaign.RunResult
	// CampaignStatus summarizes a store's coverage of a campaign.
	CampaignStatus = campaign.StatusReport
	// TableRowEvent is one table row released in grid order by a
	// row-streaming sink (WithRowSink, CampaignOptions.RowSink).
	TableRowEvent = stats.RowEvent
)

var (
	// NewCampaign compiles a manifest value.
	NewCampaign = campaign.New
	// ParseCampaign compiles a manifest from JSON bytes (inline
	// networks only; file references resolve via LoadCampaign).
	ParseCampaign = campaign.Parse
	// LoadCampaign reads, resolves and compiles a manifest file.
	LoadCampaign = campaign.Load
)

// Multi-segment topologies: several token rings coupled by
// store-and-forward bridges that relay selected streams across rings
// (see internal/topology for the model).
type (
	// Topology is a bridged multi-segment installation under analysis.
	Topology = topology.Topology
	// TopologySegment is one analysed ring (core.Network + dispatcher).
	TopologySegment = topology.Segment
	// Bridge is a store-and-forward link between two segments.
	Bridge = topology.Bridge
	// Relay forwards one high-priority stream across a bridge.
	Relay = topology.Relay
	// TopologyOptions tunes AnalyzeTopology.
	TopologyOptions = topology.Options
	// TopologyResult carries per-segment verdicts and per-relay
	// end-to-end bounds.
	TopologyResult = topology.Result
	// TopologySegmentReport is one segment's analytic outcome.
	TopologySegmentReport = topology.SegmentReport
	// TopologyRelayReport is one relay's end-to-end outcome.
	TopologyRelayReport = topology.RelayReport
	// SimTopology is a bridged multi-segment installation under
	// simulation.
	SimTopology = topology.SimTopology
	// SimTopologySegment is one simulated ring (profibus.Config).
	SimTopologySegment = topology.SimSegment
	// TopologySimResult is the sharded simulation outcome.
	TopologySimResult = topology.SimResult
	// RelaySimStats aggregates one relay's observed end-to-end delays.
	RelaySimStats = topology.RelaySimStats
)

// AnalyzeTopology composes the per-segment analyses across bridges by
// jitter inheritance, yielding per-segment DM/EDF/FCFS verdicts and
// origin-anchored end-to-end bounds per relay.
var AnalyzeTopology = topology.Analyze

// PolicyVerdict is one dispatching policy's outcome for one network.
type PolicyVerdict struct {
	// Schedulable reports whether every stream met its deadline bound.
	Schedulable bool
	// Verdicts holds the per-stream bounds in network order.
	Verdicts []StreamVerdict
}

// BatchResult is Engine.AnalyzeNetworks' outcome for one network.
type BatchResult struct {
	// Index is the network's position in the input slice.
	Index int
	// Skipped marks networks left unevaluated after cancellation.
	Skipped bool
	// FCFS is the Eq. 11/12 verdict (the stock PROFIBUS queue).
	FCFS PolicyVerdict
	// DM is the revised Eq. 16 verdict.
	DM PolicyVerdict
	// EDF is the Eqs. 17–18 verdict.
	EDF PolicyVerdict
}

// TopologyBatchResult is Engine.AnalyzeTopologies' outcome for one
// topology.
type TopologyBatchResult struct {
	// Index is the topology's position in the input slice.
	Index int
	// Skipped marks topologies left unevaluated after cancellation.
	Skipped bool
	// Err reports a structurally invalid topology; Result is zero then.
	Err error
	// Result is the analysis outcome.
	Result TopologyResult
}

// NetworkFromSimConfig derives the analytic model (Network) from a
// simulator configuration, so one description drives both analysis and
// simulation: worst-case message-cycle lengths C_hi are computed from
// the configured frame payloads, station delays and retry budget, and
// low-priority streams contribute the master's Cl term.
var NetworkFromSimConfig = topology.NetworkFromSimConfig

// TopologyFromSimTopology derives the analytic topology from a
// simulated one (NetworkFromSimConfig per segment; each segment's
// analysis dispatcher comes from its first master).
var TopologyFromSimTopology = topology.FromSim
