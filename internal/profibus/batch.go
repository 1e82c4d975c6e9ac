package profibus

import (
	"encoding/binary"
	"hash/fnv"
)

// BatchResult is the outcome of one configuration of a simulation
// batch (the root package's Engine.SimulateBatch, which fans the runs
// out on the shared worker pool).
type BatchResult struct {
	// Index is the run's position in the input slice.
	Index int
	// Skipped marks runs left unevaluated after cancellation.
	Skipped bool
	// Err reports a configuration the simulator rejected; Result is
	// zero then.
	Err error
	// Result is the simulation outcome.
	Result Result
}

// BatchSeed derives run index's seed from the batch base seed:
// base ⊕ FNV-1a(index). The construction mirrors the experiment
// harness's cell seeds and the topology simulator's segment seeds, so
// a run's random stream depends only on (base, index), never on
// scheduling order, and a batch is byte-identical at any parallelism.
func BatchSeed(base int64, index int) int64 {
	h := fnv.New64a()
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(index))
	h.Write(idx[:])
	return base ^ int64(h.Sum64())
}
