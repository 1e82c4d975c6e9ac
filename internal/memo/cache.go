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
// bounds into the fresh slice it returns. A different encoding in the
// slot is a miss that the next store replaces, so a hash collision
// costs a recomputation, never a wrong result. A miss costs the
// encoding, one hash, one probe and the insert, which allocates the
// record and nothing else.
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
// analyze-unique workload and so one 64 B allocation, plus its map
// slot; TestCacheFootprint measures about 117 B of live heap per entry
// in a full default table, about 7.7 MB in all. A full shard evicts an
// arbitrary resident entry per insert — random replacement, not LRU,
// because eviction only ever costs a recomputation, never correctness,
// and random replacement needs no per-hit bookkeeping on the hot read
// path.
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

// A shard maps an encoding's hash to its record. Records are
// immutable strings, so readers decode them outside the shard lock.
type shard struct {
	mu sync.RWMutex
	m  map[uint64]string
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
	c := &Cache{maxPerShard: max(1, maxEntries/shardCount)}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]string)
	}
	return c
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
	s := c.shardFor(h)
	s.mu.RLock()
	rec := s.m[h] // "" for an empty slot, which decodes to a miss
	s.mu.RUnlock()
	v, ok := decodeRecord(rec, enc, n)
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

// store stores the bounds v under enc, whose hash is h, replacing
// whatever the slot held and evicting an arbitrary resident entry when
// the shard is full. The record is built in a pooled buffer and copies
// both, so the caller may reuse enc's buffer and write v afterwards.
// Concurrent stores of one encoding are benign: the encoding
// determines the bounds, so every writer stores equal ones.
func (c *Cache) store(h uint64, enc []byte, v []Ticks) {
	e := encodingPool.Get().(*encoding)
	e.buf = appendRecord(e.buf[:0], enc, v)
	rec := string(e.buf)
	encodingPool.Put(e)
	s := c.shardFor(h)
	s.mu.Lock()
	if _, resident := s.m[h]; !resident && len(s.m) >= c.maxPerShard {
		for victim := range s.m {
			delete(s.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	s.m[h] = rec
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
		n += len(s.m)
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
