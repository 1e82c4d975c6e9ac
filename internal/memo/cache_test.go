package memo

import (
	"maps"
	"slices"
	"testing"

	"profirt/internal/core"
)

// fuzzLows are the low 32 bits FuzzCacheOps draws a hash from. They
// set the home slot, so 0, 1 and 2 share slot 0, the two largest share
// the last slot and wrap their runs past the table's end, and the rest
// land between. Hashes 0 and 1 share a slot hash, as every store of 0
// is a store of 1.
var fuzzLows = [8]uint64{0, 1, 2, 0x5555_5555, 0x7fff_ffff, 0x8000_0000, 0xffff_fffe, 0xffff_ffff}

// fuzzEncs are the encodings FuzzCacheOps stores and looks up: some
// are byte prefixes of others, so only the length that leads a record
// tells them apart.
var fuzzEncs = [4][]byte{{1}, {1, 2}, {2}, {1, 2, 3}}

// FuzzCacheOps drives one shard of a small cache through stores and
// lookups and checks it against a map model after every op. data[0]
// picks the cap New(64·k), k = 1–4, so the shard holds at most k
// entries in ⌈8k/7⌉ slots; each later pair of bytes is one op. The
// first byte of a pair picks store or lookup, the encoding and the
// bound count; the second picks the hash: low bits from fuzzLows,
// bits 32–36 from the byte's top five bits, the top 6 bits clear, so
// every op lands in shard 0. The bounds of each store lead with the
// op's index, so a hit that equals the model's bounds came from the
// store the model holds, made under the encoding the lookup asked for.
func FuzzCacheOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0]%4)
		c := New(shardCount * k)
		type entry struct {
			enc string
			v   []Ticks
		}
		model := map[uint64]entry{} // keyed by slot hash, max(h, 1)
		for op, ops := 0, data[1:]; len(ops) >= 2; op, ops = op+1, ops[2:] {
			h := fuzzLows[ops[1]%8] | uint64(ops[1]>>3)<<32
			key := max(h, 1)
			enc := fuzzEncs[ops[0]>>1%4]
			n := 1 + int(ops[0]>>3%3)
			before := c.Stats()
			if ops[0]&1 == 0 {
				v := []Ticks{Ticks(op), Ticks(h), 1<<40 + Ticks(op)}[:n]
				_, resident := model[key]
				evicts := !resident && len(model) == k
				c.store(h, enc, v)
				if got := c.Stats().Evictions - before.Evictions; got != one(evicts) {
					t.Fatalf("op %d: store of %#x (resident %v, %d of %d entries) evicted %d", op, h, resident, len(model), k, got)
				}
				if evicts {
					var gone []uint64
					for _, m := range slices.Sorted(maps.Keys(model)) {
						if c.record(m) == "" {
							gone = append(gone, m)
							delete(model, m)
						}
					}
					if len(gone) != 1 {
						t.Fatalf("op %d: an evicting store of %#x removed %#x, want exactly one entry", op, h, gone)
					}
				}
				model[key] = entry{string(enc), v}
			} else {
				got, ok := c.lookup(h, enc, n)
				want, resident := model[key]
				hit := resident && want.enc == string(enc) && len(want.v) == n
				if ok != hit || ok && !slices.Equal(got, want.v) {
					t.Fatalf("op %d: lookup of %#x %v n=%d returned %v %v, model holds %+v (resident %v)", op, h, enc, n, got, ok, want, resident)
				}
				if st := c.Stats(); st.Hits-before.Hits != one(hit) || st.Misses-before.Misses != one(!hit) {
					t.Fatalf("op %d: lookup counted %+v, before %+v, hit %v", op, st, before, hit)
				}
			}
			if got := c.Len(); got != len(model) {
				t.Fatalf("op %d: Len %d, model holds %d", op, got, len(model))
			}
			for _, m := range slices.Sorted(maps.Keys(model)) {
				e := model[m]
				if v, ok := decodeRecord(c.record(m), []byte(e.enc), len(e.v)); !ok || !slices.Equal(v, e.v) {
					t.Fatalf("op %d: entry %#x reads %v %v, want %v", op, m, v, ok, e.v)
				}
			}
		}
	})
}

// one counts b as 1 and !b as 0.
func one(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestNewAllocatesNoSlots: a shard's table is allocated by its first
// store, so even a cache with a huge cap costs nothing until used.
func TestNewAllocatesNoSlots(t *testing.T) {
	c := New(1 << 40)
	for i := range c.shards {
		if s := &c.shards[i]; s.hs != nil || s.recs != nil {
			t.Fatalf("shard %d holds %d slots before any store", i, len(s.hs))
		}
	}
}

// uniqueMaster fills streams and bounds with the i-th of a sequence of
// distinct four-stream DM inputs shaped like bench's analyze-unique
// masters (periods 40,000–160,000, J ≤ 1,000, bounds below the
// period) and returns its token-cycle bound. Each stream takes its
// fields from one splitmix64 draw, which costs far less than the table
// operations the benchmarks time.
func uniqueMaster(i uint64, streams []core.Stream, bounds []Ticks) Ticks {
	for j := range streams {
		x := i*uint64(len(streams)) + uint64(j) + 1
		x *= 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
		T := Ticks(40_000 + x%120_001)
		streams[j] = core.Stream{
			Ch: Ticks(200 + x>>17%600),
			D:  T - Ticks(x>>27%uint64(T*2/5)),
			T:  T,
			J:  Ticks(x >> 44 % 1_001),
		}
		bounds[j] = Ticks(x >> 32 % uint64(T))
	}
	return Ticks(5_000 + i%10_000)
}

// BenchmarkCacheChurn times the cache's miss path as analyze-unique
// drives it: a full default table fed never-repeated keys. Each op
// builds and hashes a four-stream DM encoding, misses its lookup and
// stores bounds that evict one entry.
func BenchmarkCacheChurn(b *testing.B) {
	c := New(0)
	e := new(encoding)
	w := dmOptsWords(core.DMOptions{BlockingFromLowPriority: true})
	streams := make([]core.Stream, 4)
	bounds := make([]Ticks, len(streams))
	var i uint64
	for ; c.Len() < defaultMaxEntries; i++ {
		e.build(kindDM, uniqueMaster(i, streams, bounds), w[:], streams)
		c.store(e.hash(), e.buf, bounds)
	}
	evictions := c.Stats().Evictions
	b.ResetTimer()
	for range b.N {
		e.build(kindDM, uniqueMaster(i, streams, bounds), w[:], streams)
		h := e.hash()
		if _, ok := c.lookup(h, e.buf, len(bounds)); ok {
			b.Fatalf("key %d repeated", i)
		}
		c.store(h, e.buf, bounds)
		i++
	}
	b.StopTimer()
	if got := c.Stats().Evictions - evictions; got != int64(b.N) {
		b.Fatalf("%d evictions in %d stores into a full cache", got, b.N)
	}
}

// BenchmarkCacheHit times the hit path: 2,048 resident keys of the
// same shape in a default cache, each op building and hashing one
// key's encoding and decoding its bounds.
func BenchmarkCacheHit(b *testing.B) {
	const resident = 2_048
	c := New(0)
	e := new(encoding)
	w := dmOptsWords(core.DMOptions{BlockingFromLowPriority: true})
	sets := make([][]core.Stream, resident)
	tcycles := make([]Ticks, resident)
	bounds := make([]Ticks, 4)
	for i := range sets {
		sets[i] = make([]core.Stream, len(bounds))
		tcycles[i] = uniqueMaster(uint64(i), sets[i], bounds)
		e.build(kindDM, tcycles[i], w[:], sets[i])
		c.store(e.hash(), e.buf, bounds)
	}
	b.ResetTimer()
	for i := range b.N {
		k := i % resident
		e.build(kindDM, tcycles[k], w[:], sets[k])
		if _, ok := c.lookup(e.hash(), e.buf, len(bounds)); !ok {
			b.Fatalf("resident key %d missed", k)
		}
	}
}
