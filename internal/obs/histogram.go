package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: numFinite log-spaced buckets whose upper bounds are
// minBucketNs<<i for i in [0, numFinite), i.e. 1µs, 2µs, 4µs, ...
// doubling up to ~33.5s, plus one overflow bucket. The range covers
// everything from a warm cache probe to a drain-timeout-sized stall.
const (
	minBucketNs = 1000 // 1µs: the finest bucket's upper bound
	numFinite   = 26   // finite buckets; bounds[25] ≈ 33.5s
	numBuckets  = numFinite + 1
)

// Histogram is a fixed-bucket latency histogram with log-spaced
// bounds and atomic counters. The zero value is ready to use; a nil
// *Histogram ignores Observe and snapshots empty, mirroring the
// repo's nil-safe cache/store idiom. Observe is lock-free and does
// not allocate, so histograms can sit on per-job and per-lookup hot
// paths.
type Histogram struct {
	sum     atomic.Int64 // total observed time, ns
	buckets [numBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations (a clock that
// stepped backwards) clamp to zero rather than corrupting the sum.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// bucketIndex maps a duration in ns to the first bucket whose upper
// bound is >= ns: bucket i holds ns in (minBucketNs<<(i-1),
// minBucketNs<<i], bucket 0 holds everything <= minBucketNs, and the
// last bucket holds the overflow.
func bucketIndex(ns int64) int {
	if ns <= minBucketNs {
		return 0
	}
	// ceil(ns/minBucketNs) rounded up to a power of two selects the
	// doubling bucket; bits.Len64(q-1) is ceil(log2(q)).
	q := uint64((ns + minBucketNs - 1) / minBucketNs)
	idx := bits.Len64(q - 1)
	if idx >= numFinite {
		return numFinite
	}
	return idx
}

// HistogramSnapshot is a point-in-time copy of a Histogram, safe to
// serialize (all histograms in this package share one bucket layout).
type HistogramSnapshot struct {
	// Count is the number of observations. It is always the sum of
	// Counts, so cumulative renderings end with le="+Inf" == Count
	// even when a snapshot races concurrent Observes.
	Count uint64 `json:"count"`
	// SumNs is the total observed time in nanoseconds.
	SumNs int64 `json:"sumNs"`
	// Counts holds per-bucket observation counts, one per
	// BucketBounds entry plus a trailing overflow bucket. Empty for a
	// histogram that never observed anything.
	Counts []uint64 `json:"counts,omitempty"`
}

// Snapshot copies the histogram's counters. Concurrent Observes may
// land between bucket reads; Count is derived from the bucket reads
// themselves so the snapshot is always internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{SumNs: h.sum.Load()}
	var total uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		total += c
		if s.Counts == nil {
			s.Counts = make([]uint64, numBuckets)
		}
		s.Counts[i] = c
	}
	s.Count = total
	return s
}

// BucketBounds returns the shared upper bounds of the finite buckets,
// in ascending order. Counts[len(bounds)] is the overflow (+Inf)
// bucket.
func BucketBounds() []time.Duration {
	b := make([]time.Duration, numFinite)
	for i := range b {
		b[i] = time.Duration(minBucketNs << i)
	}
	return b
}
