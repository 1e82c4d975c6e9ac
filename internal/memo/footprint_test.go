//go:build !race

package memo

import (
	"math/rand"
	"runtime"
	"testing"

	"profirt/internal/core"
)

// TestCacheFootprint bounds the live heap a full default cache holds
// per entry. It fills New(0) until every shard is full, as the
// analyze-unique benchmark workload does, with distinct four-stream DM
// keys shaped like that workload's masters (periods 40,000–160,000,
// J ≤ 1,000, bounds below the period), stored directly so no analysis
// runs and nothing but the table stays alive. Built !race: the figure
// that matters is the normal build's, and the race detector makes the
// fill over ten times slower.
func TestCacheFootprint(t *testing.T) {
	const maxBytesPerEntry = 100

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	c := New(0)
	rng := rand.New(rand.NewSource(1))
	e := new(encoding)
	w := dmOptsWords(core.DMOptions{BlockingFromLowPriority: true})
	streams := make([]core.Stream, 4)
	bounds := make([]Ticks, len(streams))
	for c.Len() < defaultMaxEntries {
		for range 1024 {
			for i := range streams {
				T := Ticks(40_000 + rng.Intn(120_001))
				streams[i] = core.Stream{
					Ch: Ticks(200 + rng.Intn(600)),
					D:  T - Ticks(rng.Intn(int(T)*2/5)),
					T:  T,
					J:  Ticks(rng.Intn(1_001)),
				}
				bounds[i] = Ticks(rng.Intn(int(T)))
			}
			e.build(kindDM, Ticks(5_000+rng.Intn(10_000)), w[:], streams)
			c.store(e.hash(), e.buf, bounds)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	n := c.Len()
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	t.Logf("%d entries, %.0f B of live heap per entry", n, perEntry)
	if n != defaultMaxEntries {
		t.Fatalf("filled to %d entries, want %d", n, defaultMaxEntries)
	}
	if perEntry > maxBytesPerEntry {
		t.Errorf("a full default cache holds %.0f B per entry, want at most %d", perEntry, maxBytesPerEntry)
	}
}
