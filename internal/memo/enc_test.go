package memo

import (
	"math/rand"
	"testing"

	"profirt/internal/core"
)

// TestEncodedLookupRoundTrip: StoreEncoded must make the identical
// encoding hit, distinct encodings and distinct kinds must miss.
func TestEncodedLookupRoundTrip(t *testing.T) {
	c := New(0)
	enc := func(words ...uint64) *Enc {
		e := GetEnc()
		for _, w := range words {
			e.Word(w)
		}
		return e
	}

	e1 := enc(1, 2, 3)
	if v, _, ok := c.LookupEncoded(KindHolistic, e1); ok {
		t.Fatalf("empty cache hit: %v", v)
	}
	_, tok, _ := c.LookupEncoded(KindHolistic, e1)
	c.StoreEncoded(tok, e1, "hol")
	if v, _, ok := c.LookupEncoded(KindHolistic, e1); !ok || v != "hol" {
		t.Fatalf("stored encoding missed: %v %v", v, ok)
	}
	// Same bytes, different kind: must not collide.
	if v, _, ok := c.LookupEncoded(KindTopology, e1); ok {
		t.Fatalf("kind collision: %v", v)
	}
	// Different bytes: miss.
	e2 := enc(1, 2, 4)
	if _, _, ok := c.LookupEncoded(KindHolistic, e2); ok {
		t.Fatal("distinct encoding hit")
	}
	PutEnc(e1)
	PutEnc(e2)

	// A token from a filter-short-circuited lookup (no SHA computed)
	// must still store correctly.
	e3 := enc(9, 9)
	_, tok3, ok := c.LookupEncoded(KindTopology, e3)
	if ok {
		t.Fatal("fresh encoding hit")
	}
	c.StoreEncoded(tok3, e3, 42)
	if v, _, ok := c.LookupEncoded(KindTopology, e3); !ok || v != 42 {
		t.Fatalf("store after guaranteed miss failed: %v %v", v, ok)
	}
	PutEnc(e3)
}

// TestPreFilterGuaranteedMissCountsLookup: lookups the pre-filter
// resolves without hashing must still advance the miss counter, so
// Stats sees the full lookup stream.
func TestPreFilterGuaranteedMissCountsLookup(t *testing.T) {
	c := New(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		DMResponseTimes(c, distinctStreams(rng, 5), 2_500, core.DMOptions{})
	}
	st := c.Stats()
	if st.Misses != 10 || st.Hits != 0 {
		t.Fatalf("10 all-distinct lookups: stats %+v", st)
	}
	if st.Entries != 10 {
		t.Fatalf("every miss must still populate the table: %+v", st)
	}
}

// TestPreFilterSurvivesEviction: with a tiny cache the filter counts
// must track evictions, so re-queries of evicted sets recompute (and
// re-insert) instead of spuriously "hitting" stale pre-hashes; results
// stay identical throughout.
func TestPreFilterSurvivesEviction(t *testing.T) {
	c := New(1) // one entry per shard: heavy eviction traffic
	rng := rand.New(rand.NewSource(5))
	sets := make([][]core.Stream, 300)
	for i := range sets {
		sets[i] = distinctStreams(rng, 4)
	}
	for _, s := range sets {
		DMResponseTimes(c, s, 2_500, core.DMOptions{})
	}
	for i, s := range sets {
		got := DMResponseTimes(c, s, 2_500, core.DMOptions{})
		want := core.DMResponseTimes(s, 2_500, core.DMOptions{})
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("set %d diverged after eviction churn", i)
			}
		}
	}
	// The filter must not have leaked counts past the entry bound:
	// every resident entry holds one registration, so the total count
	// across filter shards is bounded by the entry count.
	total := int32(0)
	for i := range c.pre {
		ps := &c.pre[i]
		ps.mu.RLock()
		for _, n := range ps.m {
			total += n
		}
		ps.mu.RUnlock()
	}
	if got := int32(c.Len()); total != got {
		t.Fatalf("filter registrations (%d) out of sync with resident entries (%d)", total, got)
	}
}

// distinctStreams draws n streams with independent random attributes:
// distinct draws give distinct cache keys.
func distinctStreams(rng *rand.Rand, n int) []core.Stream {
	streams := make([]core.Stream, n)
	for i := range streams {
		T := core.Ticks(50_000 + rng.Intn(200_000))
		streams[i] = core.Stream{
			Ch: core.Ticks(200 + rng.Intn(400)),
			D:  T - core.Ticks(rng.Intn(10_000)),
			T:  T,
			J:  core.Ticks(rng.Intn(2_000)),
		}
	}
	return streams
}
