package experiments

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
)

// The experiment drivers are embarrassingly parallel across grid cells
// (one cell = one parameter combination), but naive parallelisation
// would destroy reproducibility: the seed harness threaded a single
// *rand.Rand through the nested grid loops, so any reordering changed
// every draw downstream. The pool below restores determinism by
// construction: each cell owns an RNG seeded from
//
//	Seed ⊕ FNV-1a(experimentID, cellIndex)
//
// so a cell's random stream depends only on (Seed, experiment, cell) —
// never on scheduling order — and the drivers write results into
// per-cell slots that are reassembled in index order afterwards.
// Tables are therefore byte-identical at any pool width.

// cellSeed derives the deterministic RNG seed for one grid cell.
func cellSeed(seed int64, experimentID string, cell int) int64 {
	h := fnv.New64a()
	h.Write([]byte(experimentID))
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(cell))
	h.Write(idx[:])
	return seed ^ int64(h.Sum64())
}

// cellRNG builds the RNG a cell job must use for all its draws.
func cellRNG(cfg Config, experimentID string, cell int) *rand.Rand {
	return rand.New(rand.NewSource(cellSeed(cfg.Seed, experimentID, cell)))
}

// forEachCell evaluates fn(cell, rng) for every cell in [0, n) on
// cfg.Pool and blocks until all cells are done. Each invocation
// receives a fresh RNG from cellRNG, so fn must take all randomness
// from the rng argument. fn runs concurrently with other
// cells: it must only write to state owned by its cell (typically a
// preallocated per-cell result slot).
func forEachCell(cfg Config, experimentID string, n int, fn func(cell int, rng *rand.Rand)) {
	cfg.Pool.RunJobs(cfg.Context, n, func(_ context.Context, cell int) {
		fn(cell, cellRNG(cfg, experimentID, cell))
	})
}

// Trial-level sharding. Cells with many trials (E1–E5 run 40 each at
// full size) dominate wall-clock when the grid has fewer cells than
// cores; splitting each trial into its own pool job restores scaling.
// Determinism follows the same construction as cells: a sharded trial
// owns an RNG seeded
//
//	cellSeed(Seed, experimentID, cell) ⊕ FNV-1a(trial)
//
// so its draws depend only on (Seed, experiment, cell, trial), never on
// scheduling order, and drivers write results into per-trial slots that
// are reduced in trial order afterwards.

// trialShardMin is the trial count at which cells shard: full-size
// runs (40 trials) shard, quick runs (8) keep the historical
// shared-RNG draw sequence — the golden -quick tables are pinned to
// it. Sharded cells seed each trial independently (cellSeed ⊕
// FNV(trial)), so their tables differ from unsharded ones but are
// byte-identical at any pool width.
const trialShardMin = 16

// shardTrials reports whether cells split into per-trial sub-jobs.
func (cfg Config) shardTrials() bool {
	return cfg.Trials >= trialShardMin
}

// trialSeed derives the deterministic RNG seed for one trial of one
// grid cell.
func trialSeed(seed int64, experimentID string, cell, trial int) int64 {
	h := fnv.New64a()
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(trial))
	h.Write(idx[:])
	return cellSeed(seed, experimentID, cell) ^ int64(h.Sum64())
}

// forEachCellTrialReduced is forEachCellTrial plus per-cell completion:
// reduce(cell) runs exactly once per cell, on whichever worker finishes
// the cell's last trial, the moment that trial completes. By then every
// write of the cell's earlier trials is visible (the atomic countdown
// orders them), so reduce may fold the cell's per-trial slots in trial
// order and emit the cell's table row immediately — this is what turns
// the trial-sharded drivers into row-streaming ones. Reductions of
// different cells may run concurrently; reduce must only touch state
// owned by its cell plus concurrency-safe sinks (stats.RowStreamer).
func forEachCellTrialReduced(cfg Config, experimentID string, nCells int, fn func(cell, trial int, rng *rand.Rand), reduce func(cell int)) {
	if cfg.Trials <= 0 {
		return
	}
	remaining := make([]atomic.Int32, nCells)
	for i := range remaining {
		remaining[i].Store(int32(cfg.Trials))
	}
	forEachCellTrial(cfg, experimentID, nCells, func(cell, trial int, rng *rand.Rand) {
		fn(cell, trial, rng)
		if remaining[cell].Add(-1) == 0 {
			reduce(cell)
		}
	})
}

// forEachCellTrial evaluates fn(cell, trial, rng) for every (cell,
// trial) pair in [0, nCells) × [0, cfg.Trials). With trial sharding
// active every pair is an independent pool job with its own
// trialSeed-derived RNG; otherwise each cell runs its trials
// sequentially sharing the cell RNG, exactly reproducing the draw
// sequence of the historical per-cell loop. In both modes fn must
// write only to state owned by its (cell, trial) slot; aggregation
// over trials happens after this returns, in trial order, so tables
// are byte-identical at any pool width.
func forEachCellTrial(cfg Config, experimentID string, nCells int, fn func(cell, trial int, rng *rand.Rand)) {
	if cfg.Trials <= 0 {
		return
	}
	if !cfg.shardTrials() {
		forEachCell(cfg, experimentID, nCells, func(cell int, rng *rand.Rand) {
			for t := 0; t < cfg.Trials; t++ {
				fn(cell, t, rng)
			}
		})
		return
	}
	cfg.Pool.RunJobs(cfg.Context, nCells*cfg.Trials, func(_ context.Context, i int) {
		cell, trial := i/cfg.Trials, i%cfg.Trials
		fn(cell, trial, rand.New(rand.NewSource(trialSeed(cfg.Seed, experimentID, cell, trial))))
	})
}
