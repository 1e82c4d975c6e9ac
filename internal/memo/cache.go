// Package memo provides the content-addressed result cache behind the
// repeated fixed-point analyses. The DM/EDF message response-time
// analyses and the compositions built on them (holistic, topology,
// batch sweeps, the E9–E13 experiment grids) are pure functions of a
// small value: the multiset of stream attributes, the token-cycle
// bound, and the analysis options. Large parameter studies evaluate
// the same value over and over — across batch entries, across fixed-
// point iterations whose inputs did not change, and across experiment
// trials and policies. The cache maps a canonical hash of that value
// (see key.go) to the computed bounds, so identical fixed points are
// solved once.
//
// Contract: cached and uncached evaluation are byte-identical. The
// canonical key is order-insensitive exactly where the analysis is
// order-insensitive (see key.go for the deadline-tie caveat under DM),
// and every wrapper returns a fresh slice, so callers may mutate
// results freely. The cache is safe for concurrent use from any number
// of goroutines: it is sharded, each shard behind its own RWMutex.
//
// Lookups are cheap even when they miss: a sharded counting filter
// over 64-bit FNV-1a pre-hashes fronts the table, so a lookup whose
// pre-hash has no resident entry is declared a miss before the
// canonical ordering is built or the SHA-256 key is computed. Only
// possible hits (and the occasional filter false positive) pay for
// the cryptographic key.
//
// Memory is bounded: New(maxEntries) caps the total entry count
// (default 1<<16 entries; a cached value is one []Ticks of the stream
// count, so the default bound is a few MiB at typical set sizes). A
// full shard evicts an arbitrary resident entry per insert —
// random replacement, not LRU, because eviction only ever costs a
// recomputation, never correctness, and random replacement needs no
// per-hit bookkeeping on the hot read path. Each entry remembers its
// pre-hash so eviction keeps the filter counts exact.
package memo

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"profirt/internal/obs"
)

// Key is the content address of one analysis invocation: a SHA-256
// digest of the canonical encoding built in key.go.
type Key [32]byte

// shardCount must be a power of two (shard selection masks the key's
// first bytes).
const shardCount = 64

// defaultMaxEntries bounds a cache built with New(0).
const defaultMaxEntries = 1 << 16

// entry is one resident value plus the pre-hash it was registered
// under in the counting filter (0 when inserted without one, via the
// plain Put path; such entries are simply invisible to the filter and
// at worst cost a recomputation).
type entry struct {
	v   any
	pre uint64
}

type shard struct {
	mu sync.RWMutex
	m  map[Key]entry
}

// preShard is one shard of the counting pre-filter: how many resident
// entries were registered under each pre-hash.
type preShard struct {
	mu sync.RWMutex
	m  map[uint64]int32
}

// Cache is a bounded, sharded, content-addressed result table.
// The zero value is not usable; construct with New. A nil *Cache is a
// valid "caching disabled" value: Get misses and Put is a no-op, so
// every layer can thread an optional cache without branching.
type Cache struct {
	maxPerShard int
	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	shards      [shardCount]shard
	pre         [shardCount]preShard
	// lat, when set (SetLatency), times a sample of Get probes. An
	// atomic pointer because an Engine may attach metrics to a cache
	// already shared with in-flight lookups; sampleTick spreads the
	// clock cost (two wall reads per timed probe) over
	// lookupSampleEvery lookups, keeping the hot path at one atomic
	// add on machines where reading the clock costs as much as the
	// probe itself.
	lat        atomic.Pointer[obs.CacheMetrics]
	sampleTick atomic.Uint64
}

// lookupSampleEvery is the Get-latency sampling cadence: one probe in
// every lookupSampleEvery is timed. Must be a power of two. Sampling
// is sound here because probe latency is independent of the sampling
// counter; the histogram is a uniform sample of the distribution.
const lookupSampleEvery = 16

// New builds a cache holding at most maxEntries results; maxEntries
// <= 0 selects the default bound (1<<16).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = defaultMaxEntries
	}
	per := maxEntries / shardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{maxPerShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]entry)
		c.pre[i].m = make(map[uint64]int32)
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[binary.LittleEndian.Uint64(k[:8])&(shardCount-1)]
}

func (c *Cache) preShardFor(p uint64) *preShard {
	return &c.pre[p&(shardCount-1)]
}

// mayContain consults the counting pre-filter: false means no resident
// entry was registered under pre, so a lookup is a guaranteed miss and
// the caller can skip building the canonical key. True only promises a
// possible hit (the pre-hash is not collision-free and the filter is
// updated outside the entry shard's lock, so both false positives and
// transient false negatives occur; either way the SHA-256 keyed table
// stays the source of truth and results are unaffected).
func (c *Cache) mayContain(pre uint64) bool {
	if c == nil {
		return false
	}
	ps := c.preShardFor(pre)
	ps.mu.RLock()
	n := ps.m[pre]
	ps.mu.RUnlock()
	return n > 0
}

// countMiss records a lookup the pre-filter resolved as a guaranteed
// miss, so Stats counts the same lookup stream whether or not a SHA
// key was ever computed.
func (c *Cache) countMiss() {
	if c == nil {
		return
	}
	c.misses.Add(1)
}

func (c *Cache) preInc(p uint64) {
	ps := c.preShardFor(p)
	ps.mu.Lock()
	ps.m[p]++
	ps.mu.Unlock()
}

func (c *Cache) preDec(p uint64) {
	ps := c.preShardFor(p)
	ps.mu.Lock()
	if n := ps.m[p]; n <= 1 {
		delete(ps.m, p)
	} else {
		ps.m[p] = n - 1
	}
	ps.mu.Unlock()
}

// SetLatency attaches lookup-latency instrumentation: one in every
// lookupSampleEvery subsequent Gets records its duration into m.
// Observational only — timing never changes what Get returns. m must
// outlive the cache's use; nil detaches. Lookups the counting
// pre-filter resolves without reaching Get are not timed (they never
// probe the table).
func (c *Cache) SetLatency(m *obs.CacheMetrics) {
	if c == nil {
		return
	}
	c.lat.Store(m)
}

// Get returns the value stored under k. Values must be treated as
// immutable by every reader (the analysis wrappers copy before
// returning). Safe on a nil receiver (always a miss).
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	lm := c.lat.Load()
	if lm != nil && c.sampleTick.Add(1)&(lookupSampleEvery-1) != 0 {
		lm = nil
	}
	var t0 time.Time
	if lm != nil {
		t0 = lm.Clock.Now()
	}
	s := c.shardFor(k)
	s.mu.RLock()
	e, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	if lm != nil {
		lm.Lookup.Observe(lm.Clock.Now().Sub(t0))
	}
	return e.v, ok
}

// Put stores v under k, evicting an arbitrary resident entry when the
// shard is full. Concurrent Puts of the same key are benign: the key is
// content-addressed, so every writer stores an equal value. Safe on a
// nil receiver (no-op). Entries stored this way are not registered in
// the pre-filter; the filter-aware wrappers use putPre.
func (c *Cache) Put(k Key, v any) {
	c.putPre(k, 0, v)
}

// putPre stores v under k and keeps the counting pre-filter exact:
// the new entry registers pre (0 = skip), a displaced registration —
// the evicted victim's, or the replaced entry's when it differs — is
// decremented.
func (c *Cache) putPre(k Key, pre uint64, v any) {
	if c == nil {
		return
	}
	var dropped uint64
	s := c.shardFor(k)
	s.mu.Lock()
	old, resident := s.m[k]
	if resident {
		dropped = old.pre
	} else if len(s.m) >= c.maxPerShard {
		for victim, ve := range s.m {
			delete(s.m, victim)
			c.evictions.Add(1)
			dropped = ve.pre
			break
		}
	}
	s.m[k] = entry{v: v, pre: pre}
	s.mu.Unlock()
	if dropped == pre {
		return
	}
	if dropped != 0 {
		c.preDec(dropped)
	}
	if pre != 0 {
		c.preInc(pre)
	}
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

// Reset drops every entry and zeroes the counters.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[Key]entry)
		s.mu.Unlock()
		ps := &c.pre[i]
		ps.mu.Lock()
		ps.m = make(map[uint64]int32)
		ps.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits and Misses count lookup outcomes (including guaranteed
	// misses the pre-filter resolved without hashing).
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
