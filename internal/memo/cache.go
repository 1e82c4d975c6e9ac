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
// A 64-bit hash of the encoding picks a shard and a slot; the slot
// keeps the encoding it was stored under beside the bounds, and a hit
// is confirmed byte for byte. A different encoding in the slot is a
// miss that the next store replaces, so a hash collision costs a
// recomputation, never a wrong result. A miss costs the encoding, one
// hash, one probe and the insert.
//
// Contract: cached and uncached evaluation are byte-identical. A key
// holds every stream's (Ch, D, T, J) in the caller's order, the input
// the analysis sees with only the labels dropped, so a permuted stream
// list is a different key; and every wrapper returns a fresh slice, so
// callers may mutate results freely. The cache is safe for concurrent
// use from any number of goroutines: it is sharded, each shard behind
// its own RWMutex.
//
// Memory is bounded: New(maxEntries) caps the total entry count
// (default 1<<16 entries). An entry is its encoding plus one []Ticks
// of the stream count, about 210 B for a four-stream master, so the
// default bound holds about 14 MB. A full shard evicts an arbitrary
// resident entry per insert — random replacement, not LRU, because
// eviction only ever costs a recomputation, never correctness, and
// random replacement needs no per-hit bookkeeping on the hot read
// path.
package memo

import (
	"bytes"
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

// entry is one resident bound vector and the encoding it was stored
// under. Both are immutable once stored, so readers compare and return
// them outside the shard lock.
type entry struct {
	enc []byte
	v   []Ticks
}

type shard struct {
	mu sync.RWMutex
	m  map[uint64]entry
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

// New builds a cache holding at most maxEntries results; maxEntries
// <= 0 selects the default bound (1<<16).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = defaultMaxEntries
	}
	c := &Cache{maxPerShard: max(1, maxEntries/shardCount)}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]entry)
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

// lookup returns the bounds stored under enc, whose hash is h; only an
// entry stored under an identical encoding hits. The returned slice is
// shared with the table and must never be written (the analysis
// wrappers copy it before returning).
func (c *Cache) lookup(h uint64, enc []byte) ([]Ticks, bool) {
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
	en, ok := s.m[h]
	s.mu.RUnlock()
	ok = ok && bytes.Equal(en.enc, enc)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		en.v = nil // never hand out a foreign occupant's bounds
	}
	if lm != nil {
		lm.Lookup.Observe(lm.Clock.Now().Sub(t0))
	}
	return en.v, ok
}

// store stores v under enc, whose hash is h, replacing whatever the
// slot held and evicting an arbitrary resident entry when the shard is
// full. The encoding is copied, so the caller may reuse its buffer; v
// is kept and must not be written afterwards. Concurrent stores of one
// encoding are benign: the encoding determines the bounds, so every
// writer stores equal ones.
func (c *Cache) store(h uint64, enc []byte, v []Ticks) {
	en := entry{enc: bytes.Clone(enc), v: v}
	s := c.shardFor(h)
	s.mu.Lock()
	if _, resident := s.m[h]; !resident && len(s.m) >= c.maxPerShard {
		for victim := range s.m {
			delete(s.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	s.m[h] = en
	s.mu.Unlock()
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
