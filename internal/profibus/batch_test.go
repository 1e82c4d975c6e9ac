package profibus

import "testing"

// TestSimulateBatchSeedDerivation pins the per-run seed derivation of
// simulation batches: distinct indices under one base seed get
// distinct seeds, and the base seed reaches the result. That a batch
// run equals a direct Simulate under its derived seed is
// TestEngineEquivalenceSimulateBatch's check.
func TestSimulateBatchSeedDerivation(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1_000; i++ {
		s := BatchSeed(99, i)
		if seen[s] {
			t.Fatalf("BatchSeed collision at index %d", i)
		}
		seen[s] = true
	}
	if BatchSeed(1, 0) == BatchSeed(2, 0) {
		t.Error("BatchSeed ignores the base seed")
	}
}
