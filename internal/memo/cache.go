// Package memo provides the result cache behind the repeated
// fixed-point analyses. The DM/EDF message response-time analyses are
// pure functions of a small value: the list of stream attributes, the
// token-cycle bound, and the analysis options. The compositions built
// on them (holistic, topology, batch sweeps, the E9–E13 experiment
// grids) evaluate the same value over and over — across batch entries,
// across fixed-point rounds whose inputs did not change (every round
// of holistic and topology asks MasterBounds for each master's
// bounds), and across experiment trials and policies. The cache is one
// table keyed by the encoding of that value (see encoding.build), so
// identical fixed points are solved once. Only this package writes a
// key: callers reach the table through the analysis wrappers in
// analysis.go.
//
// A 64-bit hash of the encoding picks a shard and a slot. The slot
// holds one immutable string record (see appendRecord): the encoding
// it was stored under, led by its length, then the bounds. A hit is
// confirmed byte for byte against that encoding, and decodes the
// bounds into the fresh slice it returns. A different encoding under
// the same hash is a miss that the next store replaces, so a hash
// collision costs a recomputation, never a wrong result. A miss costs
// the encoding, one hash, one probe and the insert, which allocates
// the record and nothing else.
//
// Contract: cached and uncached evaluation are byte-identical. A key
// holds every stream's (Ch, D, T, J) in the caller's order, the input
// the analysis sees with only the labels dropped, so a permuted stream
// list is a different key; and every wrapper returns a slice the table
// does not hold, so callers may mutate results freely. The cache is
// safe for concurrent use from any number of goroutines: it is
// sharded, each shard behind its own RWMutex.
//
// Memory is bounded: each of the 64 shards holds at most
// max(1, ⌊maxEntries/64⌋) entries, so New(maxEntries) caps the total at
// max(1, ⌊maxEntries/64⌋)·64 — New(1) through New(127) hold 64 entries,
// New(1000) holds 960 — and New(0) selects 1<<16. An entry is its
// record, 55–59 B for the four-stream masters of bench's
// analyze-unique workload and so one 64 B allocation, plus its slot: a
// 64-bit hash and a string header in a shard table filled to at most
// 7/8 (see shard). TestCacheFootprint measures about 91 B of live heap
// per entry in a full default table, about 6.0 MB in all. A full shard
// evicts one resident entry per insert, the one the new key's hash
// lands on — in effect random replacement, not LRU, because eviction
// only ever costs a recomputation, never correctness, and random
// replacement needs no per-hit bookkeeping on the hot read path.
package memo

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"profirt/internal/obs"
)

// shardBits selects the shard from the top bits of an encoding's hash,
// the best-mixed bits of a multiply round.
const (
	shardBits  = 6
	shardCount = 1 << shardBits
)

// defaultMaxEntries bounds a cache built with New(0).
const defaultMaxEntries = 1 << 16

// A shard maps an encoding's hash to its record in an open-addressed
// table with linear probing: slot i holds hash hs[i] and record
// recs[i], and hs[i] == 0 marks an empty slot, so a stored hash is
// never 0: Cache.record and Cache.store take a hash of 0 as 1, which
// is a collision like any other. A probe compares hashes only and
// reads the one record whose hash matches. Records are immutable
// strings, so readers decode them outside the shard lock.
//
// Both slices are nil until the first store. They start at 8 slots
// and double whenever an insert would pass 7/8 load, the last step
// going to ⌈8·maxPerShard/7⌉ slots, so even a full shard keeps an
// empty slot and every probe ends. A store of an absent hash into a
// full shard takes the hash's home slot. An occupant there is the
// entry evicted; if the home is empty, the next resident after it is
// evicted instead, and later entries of its run shift back into the
// hole (Knuth's Algorithm R), so there are no tombstones.
type shard struct {
	mu   sync.RWMutex
	hs   []uint64
	recs []string
	n    int // resident entries
}

// home returns the slot where the probe for h starts in a table of n
// slots: the low 32 bits of h scaled to [0, n). Not the top bits,
// which already picked the shard.
func home(h uint64, n int) int {
	return int(uint64(uint32(h)) * uint64(n) >> 32)
}

// next returns the slot after i, wrapping past the table's end.
func (s *shard) next(i int) int {
	i++
	if i == len(s.hs) {
		return 0
	}
	return i
}

// dist returns how many steps a probe takes from slot a to slot b.
func (s *shard) dist(a, b int) int {
	if b < a {
		b += len(s.hs)
	}
	return b - a
}

// find returns the slot holding the nonzero hash h and true, or, if h
// is absent, the empty slot that ends its probe run and false.
func (s *shard) find(h uint64) (int, bool) {
	if len(s.hs) == 0 {
		return 0, false
	}
	for i := home(h, len(s.hs)); ; i = s.next(i) {
		switch s.hs[i] {
		case h:
			return i, true
		case 0:
			return i, false
		}
	}
}

// put stores rec under the nonzero hash h in a shard of at most maxN
// entries, replacing a resident h in place, and reports whether an
// entry was evicted to make room.
func (s *shard) put(h uint64, rec string, maxN int) (evicted bool) {
	i, resident := s.find(h)
	switch {
	case resident: // replaced in place
	case s.n < maxN:
		if (s.n+1)*8 > len(s.hs)*7 {
			s.grow(maxN)
			i, _ = s.find(h)
		}
		s.n++
	default:
		evicted = true
		if i = home(h, len(s.hs)); s.hs[i] == 0 {
			j := s.next(i)
			for s.hs[j] == 0 {
				j = s.next(j)
			}
			s.remove(j)
		}
	}
	s.hs[i], s.recs[i] = h, rec
	return evicted
}

// grow moves the entries into a table of the next size: 8 slots, then
// double, never more than ⌈8·maxN/7⌉.
func (s *shard) grow(maxN int) {
	hs, recs := s.hs, s.recs
	size := min(max(8, 2*len(hs)), (8*maxN+6)/7)
	s.hs, s.recs = make([]uint64, size), make([]string, size)
	for i, h := range hs {
		if h != 0 {
			j, _ := s.find(h)
			s.hs[j], s.recs[j] = h, recs[i]
		}
	}
}

// remove empties slot i by backward-shift deletion: each later entry
// of the run moves back into the hole, unless its home lies between
// the hole and its slot, where the hole does not cut it off. The
// caller accounts for the entry count.
func (s *shard) remove(i int) {
	for j := s.next(i); s.hs[j] != 0; j = s.next(j) {
		if s.dist(home(s.hs[j], len(s.hs)), j) < s.dist(i, j) {
			continue
		}
		s.hs[i], s.recs[i] = s.hs[j], s.recs[j]
		i = j
	}
	s.hs[i], s.recs[i] = 0, ""
}

// Cache is a bounded, sharded table of DM/EDF bound vectors keyed by
// their input encodings. The zero value is not usable; construct with
// New. A nil *Cache is a valid "caching disabled" value: the analysis
// wrappers delegate straight to core and its methods do nothing and
// report zero, so every layer can thread an optional cache without
// branching.
type Cache struct {
	maxPerShard int
	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	shards      [shardCount]shard
	// lat, when set (SetLatency), times a sample of lookups. An
	// atomic pointer because an Engine may attach metrics to a cache
	// already shared with in-flight lookups; sampleTick spreads the
	// clock cost (two wall reads per timed probe) over
	// lookupSampleEvery lookups, keeping the hot path at one atomic
	// add on machines where reading the clock costs as much as the
	// probe itself.
	lat        atomic.Pointer[obs.CacheMetrics]
	sampleTick atomic.Uint64
}

// lookupSampleEvery is the lookup-latency sampling cadence: one probe
// in every lookupSampleEvery is timed. Must be a power of two.
// Sampling is sound here because probe latency is independent of the
// sampling counter; the histogram is a uniform sample of the
// distribution.
const lookupSampleEvery = 16

// New builds a cache whose 64 shards hold at most
// max(1, ⌊maxEntries/64⌋) results each, max(1, ⌊maxEntries/64⌋)·64 in
// all: New(1) through New(127) hold 64, New(1000) holds 960.
// maxEntries <= 0 selects the default bound (1<<16).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = defaultMaxEntries
	}
	return &Cache{maxPerShard: max(1, maxEntries/shardCount)}
}

func (c *Cache) shardFor(h uint64) *shard {
	return &c.shards[h>>(64-shardBits)]
}

// SetLatency attaches lookup-latency instrumentation: one in every
// lookupSampleEvery subsequent lookups records its duration into m.
// Observational only — timing never changes what a lookup returns. m
// must outlive the cache's use; nil detaches.
func (c *Cache) SetLatency(m *obs.CacheMetrics) {
	if c == nil {
		return
	}
	c.lat.Store(m)
}

// lookup returns the n bounds stored under enc, whose hash is h, in a
// fresh slice. Only a record stored under an identical encoding and
// holding exactly n bounds hits; anything else is a miss.
func (c *Cache) lookup(h uint64, enc []byte, n int) ([]Ticks, bool) {
	lm := c.lat.Load()
	if lm != nil && c.sampleTick.Add(1)&(lookupSampleEvery-1) != 0 {
		lm = nil
	}
	var t0 time.Time
	if lm != nil {
		t0 = lm.Clock.Now()
	}
	v, ok := decodeRecord(c.record(h), enc, n)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	if lm != nil {
		lm.Lookup.Observe(lm.Clock.Now().Sub(t0))
	}
	return v, ok
}

// record returns the record stored under hash h, or "" (which decodes
// to a miss) if there is none. It counts nothing.
func (c *Cache) record(h uint64) string {
	h = max(h, 1) // 0 marks an empty slot
	s := c.shardFor(h)
	s.mu.RLock()
	rec := ""
	if i, ok := s.find(h); ok {
		rec = s.recs[i]
	}
	s.mu.RUnlock()
	return rec
}

// store stores the bounds v under enc, whose hash is h, replacing
// whatever was stored under h and evicting one resident entry when
// the shard is full (see shard). The record is built in a pooled
// buffer and copies both, so the caller may reuse enc's buffer and
// write v afterwards. Concurrent stores of one encoding are benign:
// the encoding determines the bounds, so every writer stores equal
// ones.
func (c *Cache) store(h uint64, enc []byte, v []Ticks) {
	e := encodingPool.Get().(*encoding)
	e.buf = appendRecord(e.buf[:0], enc, v)
	rec := string(e.buf)
	encodingPool.Put(e)
	h = max(h, 1) // 0 marks an empty slot
	s := c.shardFor(h)
	s.mu.Lock()
	if s.put(h, rec, c.maxPerShard) {
		c.evictions.Add(1)
	}
	s.mu.Unlock()
}

// appendRecord appends to dst the record of bounds v stored under
// encoding enc: the length of enc as a uvarint, enc itself, then each
// bound as the uvarint of uint64(t). The leading length makes a record
// confirm exactly its own encoding, never a prefix or an extension of
// it, whatever the key format.
func appendRecord(dst, enc []byte, v []Ticks) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(enc)))
	dst = append(dst, enc...)
	for _, t := range v {
		dst = binary.AppendUvarint(dst, uint64(t))
	}
	return dst
}

// decodeRecord returns the bounds of rec in a fresh slice if rec was
// stored under enc and holds exactly n of them.
func decodeRecord(rec string, enc []byte, n int) ([]Ticks, bool) {
	b := []byte(rec) // only read and never escapes, so not copied
	klen, w := binary.Uvarint(b)
	if w <= 0 || klen != uint64(len(enc)) || !bytes.HasPrefix(b[w:], enc) {
		return nil, false
	}
	b = b[w+len(enc):]
	v := make([]Ticks, n)
	for i := range v {
		t, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, false
		}
		v[i] = Ticks(t)
		b = b[w:]
	}
	if len(b) != 0 {
		return nil, false
	}
	return v, true
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += s.n
		s.mu.RUnlock()
	}
	return n
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits and Misses count lookup outcomes.
	Hits, Misses int64
	// Evictions counts entries displaced by the memory bound.
	Evictions int64
	// Entries is the resident entry count.
	Entries int
}

// Stats snapshots the counters. Safe on a nil receiver (all zero).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
