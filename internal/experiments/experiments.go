// Package experiments contains the reproduction harness: one driver per
// experiment E1–E12 of DESIGN.md §4, each regenerating the table
// recorded in EXPERIMENTS.md. The paper itself contains no numeric
// tables or figures (it is analytical), so each experiment validates
// one of its equations or claims against the discrete-event substrates
// (cpusim for Section 2, profibus for Sections 3–4).
package experiments

import (
	"context"
	"fmt"

	"profirt/internal/memo"
	"profirt/internal/pool"
	"profirt/internal/stats"
)

// Config tunes experiment size. Quick mode shrinks grids and trial
// counts for use inside benchmarks and smoke tests.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce tables exactly.
	Seed int64
	// Trials is the number of random instances per grid cell.
	Trials int
	// Quick reduces the parameter grids.
	Quick bool
	// Pool evaluates grid cells, so concurrent experiment runs (and
	// other batch work) share one bounded worker set; nil evaluates
	// them in grid order on the caller. Tables are byte-identical at
	// any pool width: every cell draws from its own deterministically
	// seeded RNG and results are reassembled in grid order.
	Pool *pool.Shared
	// Context cancels a run early; nil means no cancellation. Cells not
	// yet dispatched when it is done are skipped, so the affected
	// tables come back with their rows missing — a cancelled run's
	// output is partial, not byte-identical to a completed one.
	Context context.Context
	// TrialShardMin sets the trial count at which a grid cell splits
	// into per-trial sub-jobs on the worker pool (see forEachCellTrial):
	// 0 selects the default (16, so full-size 40-trial cells shard and
	// quick 8-trial cells keep the historical shared-RNG draws);
	// negative disables sharding. Sharded cells seed each trial
	// independently (cellSeed ⊕ FNV(trial)), so their tables differ
	// from unsharded ones but are byte-identical at any pool width.
	TrialShardMin int
	// Cache memoizes the message-level DM/EDF and holistic fixed
	// points across grid cells, trials and policies on a shared
	// content-addressed table (nil disables). Tables are byte-identical
	// with or without it.
	Cache *memo.Cache
	// Progress, when non-nil, receives one event per completed pool
	// job (a grid cell, or a single trial when the cell is
	// trial-sharded). It is called concurrently from worker goroutines
	// and must be safe for that; keep it cheap. Used by cmd/experiments
	// to stream progress for full-size runs.
	Progress func(ProgressEvent)
	// RowSink, when non-nil, receives each table row the moment its
	// grid cell's reduction completes, in grid order (stats.RowEvent
	// carries the table, row index and formatted cells). Rows stream
	// while later cells are still running; the assembled tables are
	// byte-identical with or without a sink. Like Progress it is called
	// from worker goroutines and must be cheap and concurrency-safe.
	RowSink func(stats.RowEvent)
}

// rows wires a grid-ordered row streamer for table t with n rows,
// forwarding released rows to cfg.RowSink.
func (cfg Config) rows(t *stats.Table, n int) *stats.RowStreamer {
	return stats.NewRowStreamer(t, n, cfg.RowSink)
}

// ProgressEvent reports one completed unit of experiment work.
type ProgressEvent struct {
	// Experiment is the driver's ID (e.g. "E7").
	Experiment string
	// Done and Total count completed vs scheduled pool jobs for the
	// current grid of that experiment.
	Done, Total int
}

// DefaultConfig returns the full-size configuration used to produce
// EXPERIMENTS.md.
func DefaultConfig() Config { return Config{Seed: 1, Trials: 40} }

// QuickConfig returns a configuration small enough for CI and benches.
func QuickConfig() Config { return Config{Seed: 1, Trials: 8, Quick: true} }

// Experiment couples an identifier with its driver.
type Experiment struct {
	// ID is the experiment key (e.g. "E7").
	ID string
	// Title is a one-line description.
	Title string
	// Anchor names the paper equation/section the experiment validates.
	Anchor string
	// Run produces the experiment's tables.
	Run func(cfg Config) []*stats.Table
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Preemptive fixed-priority RTA vs simulation", "Sec. 2.1 (Joseph–Pandya)", E1FixedPriorityPreemptive},
		{"E2", "Non-preemptive FP RTA: literal Eq. 1 vs revised vs simulation", "Eqs. 1–2", E2FixedPriorityNonPreemptive},
		{"E3", "EDF processor-demand test vs simulation", "Eq. 3", E3EDFDemand},
		{"E4", "Non-preemptive EDF tests: Zheng–Shin vs George pessimism", "Eqs. 4–5", E4NonPreemptiveEDFTests},
		{"E5", "EDF response-time analyses vs simulation", "Eqs. 6–10", E5EDFResponseTimes},
		{"E6", "Token rotation bound T_cycle = T_TR + T_del", "Eqs. 13–14, Sec. 3.3", E6TokenCycleBound},
		{"E7", "FCFS message bound R = nh·T_cycle vs simulation", "Eqs. 11–12", E7FCFSBound},
		{"E8", "Setting T_TR by Eq. 15: schedulability region", "Eq. 15", E8TTRSetting},
		{"E9", "DM message RTA: literal vs revised vs simulation", "Eq. 16", E9DMMessageRTA},
		{"E10", "EDF message RTA and refined T_cycle ablation", "Eqs. 17–18", E10EDFMessageRTA},
		{"E11", "FCFS vs DM vs EDF as deadlines tighten (headline claim)", "Sec. 4 conclusion", E11PolicyComparison},
		{"E12", "Release jitter and end-to-end delay composition", "Secs. 4.1–4.2", E12JitterEndToEnd},
		{"E13", "Holistic task/message/delivery fixed point", "Secs. 4.1–4.2 (with [33])", E13Holistic},
	}
}

// ByID finds an experiment by its key.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ratioCell formats a "max observed / bound" tightness ratio.
func ratioCell(observed, bound float64) string {
	if bound == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", observed/bound)
}
