package memo

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"profirt/internal/core"
)

// TestEncodedLookupRoundTrip: a store must make the identical
// encoding hit, distinct encodings and distinct kinds must miss, and
// the stored encoding must not alias the caller's reusable buffer.
func TestEncodedLookupRoundTrip(t *testing.T) {
	c := New(0)
	enc := func(k kind, words ...uint64) *encoding {
		e := new(encoding)
		e.reset(k)
		for _, w := range words {
			e.word(w)
		}
		return e
	}
	want := []Ticks{7, 11}
	get := func(e *encoding) ([]Ticks, bool) { return c.lookup(e.hash(), e.buf, len(want)) }

	e1 := enc(kindDM, 1, 2, 3)
	if v, ok := get(e1); ok {
		t.Fatalf("empty cache hit: %v", v)
	}
	c.store(e1.hash(), e1.buf, want)
	if v, ok := get(e1); !ok || !reflect.DeepEqual(v, want) {
		t.Fatalf("stored encoding missed: %v %v", v, ok)
	}
	// Same words, different kind: must not collide.
	if v, ok := get(enc(kindEDF, 1, 2, 3)); ok {
		t.Fatalf("kind collision: %v", v)
	}
	// Different words: miss.
	if _, ok := get(enc(kindDM, 1, 2, 4)); ok {
		t.Fatal("distinct encoding hit")
	}
	// Rewriting the stored encoder in place must not disturb the entry.
	e1.reset(kindDM)
	e1.word(9)
	if v, ok := get(enc(kindDM, 1, 2, 3)); !ok || !reflect.DeepEqual(v, want) {
		t.Fatalf("entry aliased the caller's buffer: %v %v", v, ok)
	}
}

// TestMissCountsLookupAndStores: every lookup of a new input counts
// one miss and leaves one entry behind.
func TestMissCountsLookupAndStores(t *testing.T) {
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
		t.Fatalf("every miss must populate the table: %+v", st)
	}
}

// TestEvictionChurnRecomputes: with a tiny cache, re-queries of evicted
// sets recompute (and re-insert) and results stay identical
// throughout.
func TestEvictionChurnRecomputes(t *testing.T) {
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
}

// TestCollidingBucketNeverServesForeignValue forces two different
// encodings into one slot: the slot must serve only the encoding it
// was stored under, a store must replace the occupant, and the
// displaced input must miss and recompute to the uncached result.
// Probes that share bytes with the occupant's record must miss too:
// its key followed by its first bound, which is a byte prefix of the
// record, and its key minus the last byte. Each asks for as many bounds
// as the rest of the record would decode to were the key not led by its
// length.
func TestCollidingBucketNeverServesForeignValue(t *testing.T) {
	a := []core.Stream{ts(300, 20_000, 40_000, 0), ts(450, 60_000, 120_000, 500)}
	b := []core.Stream{ts(300, 20_000, 40_000, 38_000), ts(450, 60_000, 120_000, 500)}
	want := core.DMResponseTimes(a, 2_500, core.DMOptions{})
	foreign := core.DMResponseTimes(b, 2_500, core.DMOptions{})
	if reflect.DeepEqual(want, foreign) {
		t.Fatal("degenerate inputs: both sets have the same bounds")
	}
	encA, encB := keyOf(kindDM, 2_500, a), keyOf(kindDM, 2_500, b)
	slot := (&encoding{buf: encA}).hash() // a's real slot, so the wrapper probes it

	c := New(0)
	c.store(slot, encB, foreign)
	if v, ok := c.lookup(slot, encA, len(a)); ok {
		t.Fatalf("slot served a foreign value: %v", v)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("foreign-occupied lookup must count one miss: %+v", st)
	}
	if v, ok := c.lookup(slot, encB, len(b)); !ok || !reflect.DeepEqual(v, foreign) {
		t.Fatalf("occupant lost: %v %v", v, ok)
	}
	for _, p := range []struct {
		name string
		enc  []byte
		n    int
	}{
		{"key and first bound", binary.AppendUvarint(bytes.Clone(encB), uint64(foreign[0])), len(b) - 1},
		{"key minus last byte", encB[:len(encB)-1], len(b) + 1},
	} {
		before := c.Stats()
		if v, ok := c.lookup(slot, p.enc, p.n); ok {
			t.Fatalf("%s: slot served %v", p.name, v)
		}
		if st := c.Stats(); st.Misses != before.Misses+1 || st.Hits != before.Hits {
			t.Fatalf("%s must count one miss: %+v, before %+v", p.name, st, before)
		}
	}

	// The displaced input misses, recomputes byte-identically and
	// replaces the occupant.
	misses := c.Stats().Misses
	if got := DMResponseTimes(c, a, 2_500, core.DMOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("recomputed %v, uncached %v", got, want)
	}
	if st := c.Stats(); st.Misses != misses+1 || st.Entries != 1 {
		t.Fatalf("recompute must miss and replace in place: %+v", st)
	}
	if _, ok := c.lookup(slot, encB, len(b)); ok {
		t.Fatal("store left the previous occupant in the slot")
	}
	hits := c.Stats().Hits
	if got := DMResponseTimes(c, a, 2_500, core.DMOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("hit after replacement %v, uncached %v", got, want)
	}
	if st := c.Stats(); st.Hits != hits+1 {
		t.Fatalf("replaced entry must hit: %+v", st)
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
