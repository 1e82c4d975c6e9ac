package obs

import (
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	bounds := BucketBounds()
	if len(bounds) != numFinite {
		t.Fatalf("BucketBounds len = %d, want %d", len(bounds), numFinite)
	}
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{1000, 0},
		{1001, 1},
		{2000, 1},
		{2001, 2},
		{4000, 2},
		{int64(bounds[numFinite-1]), numFinite - 1},
		{int64(bounds[numFinite-1]) + 1, numFinite},
		{1 << 62, numFinite},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bound must land in its own bucket, and one past it in the
	// next: the exposition's cumulative counts depend on it.
	for i, b := range bounds {
		if got := bucketIndex(int64(b)); got != i {
			t.Errorf("bucketIndex(bound %v) = %d, want %d", b, got, i)
		}
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(-time.Second) // clamps to 0, lands in bucket 0
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	if want := int64(3500); s.SumNs != want {
		t.Fatalf("SumNs = %d, want %d", s.SumNs, want)
	}
	if s.Counts[0] != 2 || s.Counts[2] != 1 {
		t.Fatalf("Counts = %v, want bucket0=2 bucket2=1", s.Counts)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("Count %d != sum of buckets %d", s.Count, total)
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if s := nilH.Snapshot(); s.Count != 0 || s.Counts != nil {
		t.Fatalf("nil snapshot = %+v, want empty", s)
	}
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.SumNs != 0 || s.Counts != nil {
		t.Fatalf("empty snapshot = %+v, want empty", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Nanosecond)
				if i%64 == 0 {
					s := h.Snapshot()
					var total uint64
					for _, c := range s.Counts {
						total += c
					}
					if total != s.Count {
						t.Errorf("racing snapshot inconsistent: %d != %d", s.Count, total)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
}

func TestMeanUsesFakeClockDurations(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 || time.Duration(s.SumNs) != 6*time.Millisecond {
		t.Fatalf("Count, SumNs = %d, %v, want 2, 6ms", s.Count, time.Duration(s.SumNs))
	}
}
