package pool

import (
	"context"
	"sync"
	"testing"
	"time"

	"profirt/internal/obs"
)

// stepClock advances a fixed amount per Now call, so histograms see
// deterministic nonzero durations without real sleeps.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func TestSharedObservedRecordsQueueWaitAndRun(t *testing.T) {
	m := obs.NewMetrics(&stepClock{})
	s := NewSharedObserved(4, &m.Pool)
	defer s.Close()

	const n = 16
	var mu sync.Mutex
	seen := make(map[int]bool)
	s.RunJobs(context.Background(), n, func(_ context.Context, i int) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
	})
	if len(seen) != n {
		t.Fatalf("ran %d jobs, want %d", len(seen), n)
	}
	if got := m.Pool.Run.Snapshot().Count; got != n {
		t.Fatalf("Run histogram count = %d, want %d", got, n)
	}
	if got := m.Pool.QueueWait.Snapshot().Count; got != n {
		t.Fatalf("QueueWait histogram count = %d, want %d", got, n)
	}
	if m.Pool.Run.Snapshot().SumNs <= 0 {
		t.Fatal("Run histogram recorded no time under a stepping clock")
	}
}

func TestSharedObservedInlineRecordsRunOnly(t *testing.T) {
	m := obs.NewMetrics(&stepClock{})
	s := NewSharedObserved(1, &m.Pool)
	defer s.Close()

	s.RunJobs(context.Background(), 5, func(context.Context, int) {})
	if got := m.Pool.Run.Snapshot().Count; got != 5 {
		t.Fatalf("inline Run count = %d, want 5", got)
	}
	if got := m.Pool.QueueWait.Snapshot().Count; got != 0 {
		t.Fatalf("inline QueueWait count = %d, want 0 (inline jobs never queue)", got)
	}
}

func TestRunJobsSpansNestUnderSubmit(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	tr := obs.NewTracer("t", nil)
	ctx := obs.WithTracer(context.Background(), tr)

	s.RunJobs(ctx, 8, func(jctx context.Context, i int) {
		_, sp := obs.StartSpan(jctx, "work")
		sp.End()
	})

	events := tr.Events()
	byID := map[uint64]obs.Event{}
	var submitID uint64
	jobs, works := 0, 0
	for _, e := range events {
		byID[e.ID] = e
		switch e.Name {
		case "pool.submit":
			submitID = e.ID
		case "pool.job":
			jobs++
		case "work":
			works++
		}
	}
	if submitID == 0 {
		t.Fatal("no pool.submit span recorded")
	}
	if jobs != 8 || works != 8 {
		t.Fatalf("got %d pool.job and %d work spans, want 8 and 8", jobs, works)
	}
	for _, e := range events {
		switch e.Name {
		case "pool.job":
			if e.Parent != submitID {
				t.Errorf("pool.job %d parented under %d, want pool.submit %d", e.ID, e.Parent, submitID)
			}
		case "work":
			if byID[e.Parent].Name != "pool.job" {
				t.Errorf("work span parented under %q, want pool.job", byID[e.Parent].Name)
			}
		}
	}
}

func TestRunJobsInlineSpans(t *testing.T) {
	s := NewShared(1)
	defer s.Close()
	tr := obs.NewTracer("t", nil)
	ctx := obs.WithTracer(context.Background(), tr)
	s.RunJobs(ctx, 3, func(jctx context.Context, i int) {})
	jobs := 0
	for _, e := range tr.Events() {
		if e.Name == "pool.job" {
			jobs++
			if e.Parent != 0 {
				t.Errorf("inline pool.job has parent %d, want 0 (no submit span)", e.Parent)
			}
		}
	}
	if jobs != 3 {
		t.Fatalf("got %d inline pool.job spans, want 3", jobs)
	}
}

func TestUnobservedPoolRecordsNothing(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	// No metrics attached: nothing to assert beyond not panicking, and
	// every job receiving a usable context without a tracer.
	s.RunJobs(context.Background(), 8, func(jctx context.Context, i int) {
		if jctx == nil {
			t.Error("job ctx is nil for a background submission")
		}
	})
}
