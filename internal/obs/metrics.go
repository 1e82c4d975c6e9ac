package obs

// Op enumerates the Engine's public operations for per-op latency
// histograms. The order is part of the Stats wire format: serve
// renders ops in this order so scrapes diff cleanly.
type Op int

const (
	OpAnalyzeNetworks Op = iota
	OpAnalyzeTopologies
	OpAnalyzeHolistic
	OpSimulate
	OpSimulateBatch
	OpSimulateTopology
	OpRunCampaign
	OpRunExperiments
	NumOps int = iota
)

var opNames = [NumOps]string{
	OpAnalyzeNetworks:   "analyze_networks",
	OpAnalyzeTopologies: "analyze_topologies",
	OpAnalyzeHolistic:   "analyze_holistic",
	OpSimulate:          "simulate",
	OpSimulateBatch:     "simulate_batch",
	OpSimulateTopology:  "simulate_topology",
	OpRunCampaign:       "run_campaign",
	OpRunExperiments:    "run_experiments",
}

// String returns the op's snake_case metric label.
func (o Op) String() string {
	if o < 0 || int(o) >= NumOps {
		return "unknown"
	}
	return opNames[o]
}

// PoolMetrics times worker-pool jobs: how long each job waited from
// submission enqueue to dispatch, and how long it ran. Inline jobs
// (limit <= 1 fast path) never queue, so they record Run only.
type PoolMetrics struct {
	Clock     Clock
	QueueWait Histogram
	Run       Histogram
}

// CacheMetrics times memo cache lookups (Cache.Lookup): the shard
// probe and the byte compare, for hits and misses alike, sampled at a
// fixed cadence (see Cache.SetLatency).
type CacheMetrics struct {
	Clock  Clock
	Lookup Histogram
}

// Metrics bundles one Engine's latency instrumentation. A nil
// *Metrics (observability disabled) makes every recording site a
// no-op.
type Metrics struct {
	Clock Clock
	Ops   [NumOps]Histogram
	Pool  PoolMetrics
	Cache CacheMetrics
}

// NewMetrics builds a Metrics sharing one clock across all groups.
// A nil clock selects Wall.
func NewMetrics(c Clock) *Metrics {
	c = orWall(c)
	m := &Metrics{Clock: c}
	m.Pool.Clock = c
	m.Cache.Clock = c
	return m
}
