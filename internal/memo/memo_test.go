package memo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/timeunit"
)

func ts(ch, d, t, j Ticks) core.Stream { return core.Stream{Ch: ch, D: d, T: t, J: j} }

// streamSetKey is the standalone form of the wrappers' key: the
// encoding encoding.build writes for one analysis invocation.
func streamSetKey(k kind, tcycle Ticks, opts []uint64, streams []core.Stream) []byte {
	e := new(encoding)
	e.build(k, tcycle, opts, streams)
	return e.buf
}

// keyOf is the test shorthand for the encoding of a stream set under
// zero options.
func keyOf(k kind, tc Ticks, streams []core.Stream) []byte {
	w := dmOptsWords(core.DMOptions{})
	return streamSetKey(k, tc, w[:], streams)
}

// TestKeyIsNameBlind: names never enter the key, so networks that
// differ only in labels share entries.
func TestKeyIsNameBlind(t *testing.T) {
	streams := []core.Stream{
		ts(300, 20_000, 40_000, 0),
		ts(450, 60_000, 120_000, 500),
		ts(500, 150_000, 300_000, 0),
	}
	named := append([]core.Stream(nil), streams...)
	for i := range named {
		named[i].Name = "renamed"
	}
	for _, k := range []kind{kindDM, kindEDF} {
		if !bytes.Equal(keyOf(k, 2_500, named), keyOf(k, 2_500, streams)) {
			t.Errorf("kind %d: renaming streams changed the key", k)
		}
	}
}

// TestKeyKeepsCallerOrder: the key is the stream list in the caller's
// order, so every reordering of distinct tuples is a distinct key, and
// its first lookup misses and returns the uncached bounds of the order
// it was given. The second set has two streams tied on D, which DM
// orders by position.
func TestKeyKeepsCallerOrder(t *testing.T) {
	const tc = 2_500
	sets := [][]core.Stream{
		{ts(300, 20_000, 40_000, 0), ts(450, 60_000, 120_000, 500), ts(400, 90_000, 90_000, 0), ts(500, 150_000, 300_000, 0)},
		{ts(300, 20_000, 40_000, 0), ts(450, 60_000, 120_000, 500), ts(400, 60_000, 90_000, 0), ts(500, 150_000, 300_000, 0)},
	}
	for _, k := range []kind{kindDM, kindEDF} {
		analyze := func(c *Cache, ss []core.Stream) []Ticks {
			if k == kindDM {
				return DMResponseTimes(c, ss, tc, core.DMOptions{})
			}
			return EDFResponseTimes(c, ss, tc, core.EDFOptions{})
		}
		for si, streams := range sets {
			c := New(0)
			keys := map[string]bool{}
			var permute func(p []core.Stream, i int)
			permute = func(p []core.Stream, i int) {
				if i < len(p) {
					for j := i; j < len(p); j++ {
						p[i], p[j] = p[j], p[i]
						permute(p, i+1)
						p[i], p[j] = p[j], p[i]
					}
					return
				}
				key := string(keyOf(k, tc, p))
				if keys[key] {
					t.Fatalf("kind %d set %d: order %v shares a key with an earlier order", k, si, p)
				}
				keys[key] = true
				misses := c.Stats().Misses
				if got, want := analyze(c, p), analyze(nil, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("kind %d set %d: order %v: cached %v, uncached %v", k, si, p, got, want)
				}
				if c.Stats().Misses != misses+1 {
					t.Fatalf("kind %d set %d: order %v hit an entry of another order", k, si, p)
				}
			}
			permute(append([]core.Stream(nil), streams...), 0)
			if st := c.Stats(); st.Misses != 24 || st.Hits != 0 || st.Entries != 24 {
				t.Errorf("kind %d set %d: stats %+v, want 24 misses and entries", k, si, st)
			}
		}
	}
}

// TestKeyCollisionSanity: near-identical inputs — one attribute nudged
// by one tick, one stream duplicated or dropped, a different kind,
// T_cycle or option word, or one value moved across a uvarint width
// boundary — must encode distinctly.
func TestKeyCollisionSanity(t *testing.T) {
	base := []core.Stream{
		ts(300, 20_000, 40_000, 0),
		ts(450, 60_000, 120_000, 500),
		ts(500, 150_000, 300_000, 0),
	}
	seen := map[string]string{}
	add := func(label string, k []byte) {
		t.Helper()
		if prev, dup := seen[string(k)]; dup {
			t.Fatalf("key collision: %q and %q share an address", label, prev)
		}
		seen[string(k)] = label
	}
	field := func(s *core.Stream, f int) *Ticks {
		return [...]*Ticks{&s.Ch, &s.D, &s.T, &s.J}[f]
	}
	add("base", keyOf(kindDM, 2_500, base))
	add("base-edf", keyOf(kindEDF, 2_500, base))
	add("base-tc", keyOf(kindDM, 2_501, base))
	add("base-opts", streamSetKey(kindDM, 2_500, []uint64{1, 0}, base))
	for i := range base {
		for f := 0; f < 4; f++ {
			mod := append([]core.Stream(nil), base...)
			*field(&mod[i], f)++
			add("nudged", keyOf(kindDM, 2_500, mod))
		}
	}
	add("duplicated", keyOf(kindDM, 2_500, append(append([]core.Stream(nil), base...), base[0])))
	add("dropped", keyOf(kindDM, 2_500, base[:2]))

	// uvarint width boundaries: 1→2 bytes at 128, 2→3 at 16384, 8→9 at
	// 1<<56, and the widest value a Ticks field holds.
	for _, v := range []Ticks{127, 128, 16383, 16384, 1 << 56, math.MaxInt64} {
		add(fmt.Sprintf("tc=%d", v), keyOf(kindDM, v, base))
		for i := range base {
			for f := 0; f < 4; f++ {
				mod := append([]core.Stream(nil), base...)
				*field(&mod[i], f) = v
				add(fmt.Sprintf("s%d f%d=%d", i, f, v), keyOf(kindDM, 2_500, mod))
			}
		}
	}
}

// FuzzStreamSetEncoding decodes encoding.build's output with a
// test-side uvarint reader: it must consume the encoding exactly and
// give back the kind, T_cycle, the options and the (Ch, D, T, J)
// tuples in the caller's order. That round trip is the injectivity the
// exact-compare table relies on, checked here because field widths
// depend on the values. dm picks the kind; raw supplies streams as
// 32-byte (Ch, D, T, J) records of little-endian words. Bounds stored
// in the cache under the encoding must then come back exactly.
func FuzzStreamSetEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, dm bool, tcycle int64, opt0, opt1 uint64, raw []byte) {
		var streams []core.Stream
		for ; len(raw) >= 32 && len(streams) < 16; raw = raw[32:] {
			word := func(i int) Ticks { return Ticks(binary.LittleEndian.Uint64(raw[8*i:])) }
			streams = append(streams, core.Stream{Name: "s", Ch: word(0), D: word(1), T: word(2), J: word(3)})
		}
		kd := kindEDF
		if dm {
			kd = kindDM
		}
		enc := streamSetKey(kd, Ticks(tcycle), []uint64{opt0, opt1}, streams)

		if len(enc) < 1 || kind(enc[0]) != kd {
			t.Fatalf("header %x: want kind %d", enc[:min(1, len(enc))], kd)
		}
		rest := enc[1:]
		next := func() uint64 {
			t.Helper()
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				t.Fatalf("malformed uvarint in %x", enc)
			}
			rest = rest[n:]
			return v
		}
		if got := Ticks(next()); got != Ticks(tcycle) {
			t.Fatalf("T_cycle %d, want %d", got, tcycle)
		}
		if n := next(); n != 2 {
			t.Fatalf("option count %d, want 2", n)
		}
		if o0, o1 := next(), next(); o0 != opt0 || o1 != opt1 {
			t.Fatalf("options (%d, %d), want (%d, %d)", o0, o1, opt0, opt1)
		}
		if n := next(); n != uint64(len(streams)) {
			t.Fatalf("stream count %d, want %d", n, len(streams))
		}
		for i, s := range streams {
			// Encoded field order is (Ch, D, T, J).
			want := [4]uint64{uint64(s.Ch), uint64(s.D), uint64(s.T), uint64(s.J)}
			if got := [4]uint64{next(), next(), next(), next()}; got != want {
				t.Fatalf("stream %d decodes to %v, want %v", i, got, want)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes after the last stream", len(rest))
		}

		// Bounds stored under the encoding come back exactly, whatever
		// their width: 0, MaxTicks, words with the top bit set and one
		// fuzzed word per stream, each time in a fresh slice the table
		// does not hold.
		want := []Ticks{0, timeunit.MaxTicks, Ticks(opt0), Ticks(opt1 | 1<<63)}
		for _, s := range streams {
			want = append(want, s.J)
		}
		stored := slices.Clone(want)
		c := New(0)
		h := (&encoding{buf: enc}).hash()
		c.store(h, enc, stored)
		clear(stored)
		first, ok1 := c.lookup(h, enc, len(want))
		second, ok2 := c.lookup(h, enc, len(want))
		if !ok1 || !ok2 || !slices.Equal(first, want) || !slices.Equal(second, want) {
			t.Fatalf("stored %v, looked up %v (%v) and %v (%v)", want, first, ok1, second, ok2)
		}
		if &first[0] == &second[0] {
			t.Fatal("two lookups returned one slice")
		}
		for _, n := range []int{len(want) - 1, len(want) + 1} {
			if v, ok := c.lookup(h, enc, n); ok {
				t.Fatalf("a record of %d bounds served %d: %v", len(want), n, v)
			}
		}
	})
}

// randomStreams draws a small stream set; deadline ties (including
// cross-tuple ties, which DM breaks by position) are made likely on
// purpose by drawing D from a coarse grid.
func randomStreams(rng *rand.Rand) []core.Stream {
	n := 1 + rng.Intn(5)
	out := make([]core.Stream, n)
	for i := range out {
		out[i] = core.Stream{
			Name: "s",
			Ch:   Ticks(200 + rng.Intn(400)),
			D:    Ticks((1 + rng.Intn(8)) * 10_000),
			T:    Ticks(40_000 + rng.Intn(4)*20_000),
			J:    Ticks(rng.Intn(3) * 1_000),
		}
	}
	return out
}

// TestCachedMatchesUncached is the wrapper-level equivalence property:
// across random stream sets (duplicates, deadline ties and divergent
// bounds included), the memoized DM/EDF analyses must return exactly
// the uncached results — on the miss that populates the cache, on
// every subsequent hit, and for permuted orderings of the same set,
// which hit only where they repeat an order already stored.
func TestCachedMatchesUncached(t *testing.T) {
	c := New(0)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		streams := randomStreams(rng)
		tc := Ticks(1_500 + rng.Intn(3)*500)
		dmOpts := core.DMOptions{Literal: rng.Intn(2) == 0, BlockingFromLowPriority: rng.Intn(2) == 0}
		edfOpts := core.EDFOptions{BlockingFromLowPriority: rng.Intn(2) == 0}

		wantDM := core.DMResponseTimes(streams, tc, dmOpts)
		wantEDF := core.EDFResponseTimes(streams, tc, edfOpts)
		for pass := 0; pass < 3; pass++ {
			if got := DMResponseTimes(c, streams, tc, dmOpts); !reflect.DeepEqual(got, wantDM) {
				t.Fatalf("trial %d pass %d: cached DM %v != uncached %v (streams %+v tc %d opts %+v)",
					trial, pass, got, wantDM, streams, tc, dmOpts)
			}
			if got := EDFResponseTimes(c, streams, tc, edfOpts); !reflect.DeepEqual(got, wantEDF) {
				t.Fatalf("trial %d pass %d: cached EDF %v != uncached %v (streams %+v tc %d)",
					trial, pass, got, wantEDF, streams, tc)
			}
			// Permute and check against a direct uncached evaluation of
			// the permuted order.
			perm := rng.Perm(len(streams))
			shuffled := make([]core.Stream, len(streams))
			for i, p := range perm {
				shuffled[i] = streams[p]
			}
			if got, want := DMResponseTimes(c, shuffled, tc, dmOpts), core.DMResponseTimes(shuffled, tc, dmOpts); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: permuted cached DM %v != uncached %v (streams %+v tc %d opts %+v)",
					trial, got, want, shuffled, tc, dmOpts)
			}
			if got, want := EDFResponseTimes(c, shuffled, tc, edfOpts), core.EDFResponseTimes(shuffled, tc, edfOpts); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: permuted cached EDF %v != uncached %v", trial, got, want)
			}
		}
	}
	if s := c.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("degenerate exercise: stats %+v", s)
	}
}

// TestReturnedSlicesAreFresh pins the package contract that every
// wrapper returns a fresh slice: overwriting every element of the
// slice returned on the miss that fills an entry, and again on the hit
// that reads it, must leave the next call's bounds equal to the
// uncached ones.
func TestReturnedSlicesAreFresh(t *testing.T) {
	const tc = 2_500
	streams := []core.Stream{
		ts(300, 20_000, 40_000, 0),
		ts(450, 60_000, 120_000, 500),
		ts(500, 150_000, 300_000, 0),
	}
	m := core.Master{High: streams, LongestLow: 600}
	calls := []struct {
		name string
		call func(*Cache) []Ticks
	}{
		{"DMResponseTimes", func(c *Cache) []Ticks { return DMResponseTimes(c, streams, tc, core.DMOptions{}) }},
		{"EDFResponseTimes", func(c *Cache) []Ticks { return EDFResponseTimes(c, streams, tc, core.EDFOptions{}) }},
		{"MasterBounds/FCFS", func(c *Cache) []Ticks { return MasterBounds(nil, c, ap.FCFS, m, tc) }},
		{"MasterBounds/DM", func(c *Cache) []Ticks { return MasterBounds(nil, c, ap.DM, m, tc) }},
		{"MasterBounds/EDF", func(c *Cache) []Ticks { return MasterBounds(nil, c, ap.EDF, m, tc) }},
	}
	for _, cl := range calls {
		want := cl.call(nil)
		c := New(0)
		for _, outcome := range []string{"miss", "hit", "next"} {
			got := cl.call(c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s after overwriting earlier results: %v, uncached %v", cl.name, outcome, got, want)
			}
			for i := range got {
				got[i] = -1
			}
		}
		wantStats := Stats{Hits: 2, Misses: 1, Entries: 1}
		if cl.name == "MasterBounds/FCFS" {
			wantStats = Stats{} // the closed form never touches the cache
		}
		if st := c.Stats(); st != wantStats {
			t.Errorf("%s: stats %+v, want %+v", cl.name, st, wantStats)
		}
	}
}

// TestNetworkWrappersMatchCore checks the verdict-level mirrors.
func TestNetworkWrappersMatchCore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(0)
	for trial := 0; trial < 60; trial++ {
		n := core.Network{TTR: Ticks(1_000 + rng.Intn(3_000))}
		masters := 1 + rng.Intn(3)
		for m := 0; m < masters; m++ {
			cm := core.Master{Name: "m", High: randomStreams(rng)}
			if rng.Intn(2) == 0 {
				cm.LongestLow = Ticks(200 + rng.Intn(400))
			}
			n.Masters = append(n.Masters, cm)
		}
		for pass := 0; pass < 2; pass++ {
			gotOK, got := DMSchedulable(c, n, core.DMOptions{})
			wantOK, want := core.DMSchedulable(n, core.DMOptions{})
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: cached DMSchedulable diverged", trial)
			}
			gotOK, got = EDFSchedulableNet(c, n, core.EDFOptions{})
			wantOK, want = core.EDFSchedulableNet(n, core.EDFOptions{})
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: cached EDFSchedulableNet diverged", trial)
			}
		}
	}
}

// TestNilCache pins the "caching disabled" contract.
func TestNilCache(t *testing.T) {
	var c *Cache
	streams := []core.Stream{ts(300, 20_000, 40_000, 0)}
	want := core.DMResponseTimes(streams, 2_500, core.DMOptions{})
	if got := DMResponseTimes(c, streams, 2_500, core.DMOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatal("nil cache must delegate")
	}
	c.SetLatency(nil) // must not panic
	if c.Len() != 0 {
		t.Errorf("nil Len = %d", c.Len())
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil Stats = %+v", s)
	}
}

// TestEviction checks the memory bound New documents: each of the 64
// shards holds at most max(1, ⌊maxEntries/64⌋) entries, so Len never
// passes max(1, ⌊maxEntries/64⌋)·64 and reaches it once every shard
// has filled, and each insert of a new key into a full shard evicts
// exactly one entry.
func TestEviction(t *testing.T) {
	const inserts = 5_000
	for _, tc := range []struct{ maxEntries, limit int }{
		{1, 64}, {64, 64}, {100, 64}, {1000, 960},
	} {
		t.Run(fmt.Sprintf("New(%d)", tc.maxEntries), func(t *testing.T) {
			c := New(tc.maxEntries)
			e := new(encoding)
			streams := []core.Stream{ts(300, 20_000, 40_000, 0)}
			for i := range inserts {
				e.build(kindDM, Ticks(i), nil, streams) // T_cycle i: a distinct key per insert
				c.store(e.hash(), e.buf, []Ticks{Ticks(i)})
				if got := c.Len(); got > tc.limit {
					t.Fatalf("insert %d: %d entries, past the bound %d", i, got, tc.limit)
				}
			}
			if got := c.Len(); got != tc.limit {
				t.Errorf("%d entries after %d distinct inserts, want the bound %d", got, inserts, tc.limit)
			}
			if got, want := c.Stats().Evictions, int64(inserts-tc.limit); got != want {
				t.Errorf("%d evictions, want %d: one per insert into a full shard", got, want)
			}
		})
	}
}

// TestConcurrentSharedCache hammers one cache from many goroutines over
// a small key population (maximal contention) and checks every result
// against the uncached analysis. Run under -race this is the data-race
// gate for the sharded table.
func TestConcurrentSharedCache(t *testing.T) {
	c := New(128)
	seedRng := rand.New(rand.NewSource(11))
	population := make([][]core.Stream, 16)
	for i := range population {
		population[i] = randomStreams(seedRng)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				streams := population[rng.Intn(len(population))]
				got := DMResponseTimes(c, streams, 2_500, core.DMOptions{})
				want := core.DMResponseTimes(streams, 2_500, core.DMOptions{})
				if !reflect.DeepEqual(got, want) {
					select {
					case errs <- "concurrent cached result diverged":
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
