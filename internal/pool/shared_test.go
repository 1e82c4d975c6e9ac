package pool

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"profirt/internal/obs"
)

// eachPool runs body against the three execution shapes every
// submission can take: a nil *Shared and a width-1 pool (both inline
// on the caller) and a width-4 pool (the workers).
func eachPool(t *testing.T, body func(t *testing.T, s *Shared)) {
	t.Run("nil", func(t *testing.T) { body(t, nil) })
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			s := NewShared(w)
			defer s.Close()
			body(t, s)
		})
	}
}

// maxTracker records the high-water mark of a concurrent counter.
type maxTracker struct {
	cur atomic.Int64
	max atomic.Int64
}

func (t *maxTracker) enter() {
	c := t.cur.Add(1)
	for {
		m := t.max.Load()
		if c <= m || t.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (t *maxTracker) exit() { t.cur.Add(-1) }

// TestSharedRunsEveryIndexOnce varies the job count around the pool
// width — a single job, fewer jobs than workers, exactly as many, one
// more, and many more — and checks each index runs exactly once.
func TestSharedRunsEveryIndexOnce(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	for _, n := range []int{1, 2, 4, 5, 1000} {
		counts := make([]atomic.Int32, n)
		s.RunJobs(context.Background(), n, func(_ context.Context, i int) {
			if i < 0 || i >= n {
				t.Errorf("n=%d: job called with index %d", n, i)
				return
			}
			counts[i].Add(1)
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

func TestSharedBoundsConcurrencyAcrossSubmitters(t *testing.T) {
	const workers, submitters, jobs = 3, 8, 64
	s := NewShared(workers)
	defer s.Close()
	var running maxTracker
	var wg sync.WaitGroup
	for k := 0; k < submitters; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.RunJobs(nil, jobs, func(context.Context, int) {
				running.enter()
				defer running.exit()
				spin()
			})
		}()
	}
	wg.Wait()
	if got := running.max.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool width %d", got, workers)
	}
}

// TestSharedLimitOneRunsInline: a single-job submission to a wide pool
// runs on the calling goroutine, and a pool tallies its inline
// submissions (width 1 or a single job) apart from worker submissions.
func TestSharedLimitOneRunsInline(t *testing.T) {
	wide := NewShared(4)
	defer wide.Close()
	narrow := NewShared(1)
	defer narrow.Close()
	caller := obs.GoroutineID()
	ran := 0
	wide.RunJobs(nil, 1, func(context.Context, int) {
		if g := obs.GoroutineID(); g != caller {
			t.Errorf("single job ran on goroutine %d, caller is %d", g, caller)
		}
		ran++
	})
	if ran != 1 {
		t.Fatalf("single-job submission ran %d jobs", ran)
	}
	narrow.RunJobs(nil, 10, func(context.Context, int) {})
	for _, s := range []*Shared{narrow, wide} {
		if st := s.Stats(); st.InlineSubmissions != 1 || st.Submissions != 0 || st.Jobs != 0 {
			t.Fatalf("width %d: inline submission accounting: %+v", s.Workers(), st)
		}
	}
}

func TestSharedPropagatesPanicToItsSubmitter(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	// A healthy submission alongside the panicking one must complete
	// untouched.
	var okDone atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.RunJobs(nil, 100, func(context.Context, int) { okDone.Add(1); spin() })
	}()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		s.RunJobs(nil, 100, func(_ context.Context, i int) {
			if i == 7 {
				panic("boom")
			}
			spin()
		})
	}()
	wg.Wait()
	if got := okDone.Load(); got != 100 {
		t.Fatalf("healthy submission ran %d of 100 jobs", got)
	}
}

// TestSharedStopsDispatchOnCancel: cancellation is per submission — a
// cancelled submission stops dispatching while a concurrent one on the
// same workers runs to completion.
func TestSharedStopsDispatchOnCancel(t *testing.T) {
	s := NewShared(2)
	defer s.Close()
	var okDone atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.RunJobs(context.Background(), 200, func(context.Context, int) { okDone.Add(1); spin() })
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	s.RunJobs(ctx, 1000, func(context.Context, int) {
		if ran.Add(1) == 4 {
			cancel()
		}
		spin()
	})
	wg.Wait()
	// In-flight jobs may finish after the cancel, but dispatch stops:
	// nowhere near the full 1000 run.
	if got := ran.Load(); got < 4 || got >= 1000 {
		t.Fatalf("cancellation did not stop dispatch (ran %d)", got)
	}
	if got := okDone.Load(); got != 200 {
		t.Fatalf("uncancelled submission ran %d of 200 jobs", got)
	}
}

func TestSharedInterleavesConcurrentSubmitters(t *testing.T) {
	// Concurrent submissions must all finish: the round-robin ring
	// alternates their jobs instead of running the first to completion
	// while the others starve behind a lost wakeup.
	s := NewShared(2)
	defer s.Close()
	var wg sync.WaitGroup
	var total atomic.Int32
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.RunJobs(nil, 50, func(context.Context, int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 200 {
		t.Fatalf("ran %d of 200 jobs", got)
	}
}

func TestSharedReentrantSubmissionDoesNotDeadlock(t *testing.T) {
	// A job (or a callback it invokes) that submits back to the pool it
	// runs on must not block a worker on work only workers can run. The
	// pool detects the re-entrant call and runs it inline on that
	// worker, in index order; with every worker inside such a job this
	// would deadlock otherwise. (Width 2 keeps the outer submission on
	// the workers — width 1 would degenerate it to the inline path.)
	s := NewShared(2)
	defer s.Close()
	var inner atomic.Int32
	s.RunJobs(nil, 4, func(context.Context, int) {
		worker := obs.GoroutineID()
		next := 0
		s.RunJobs(nil, 8, func(_ context.Context, i int) {
			if g := obs.GoroutineID(); g != worker {
				t.Errorf("nested job %d ran on goroutine %d, not its worker %d", i, g, worker)
			}
			if i != next {
				t.Errorf("nested job %d ran out of order (want %d)", i, next)
			}
			next++
			inner.Add(1)
		})
	})
	if got := inner.Load(); got != 32 {
		t.Fatalf("nested submissions ran %d of 32 jobs", got)
	}
	if st := s.Stats(); st.InlineSubmissions != 4 || st.Submissions != 1 {
		t.Fatalf("re-entrant submissions not counted inline: %+v", st)
	}
}

func TestSharedCloseIsIdempotentAndRejectsNewWork(t *testing.T) {
	s := NewShared(2)
	s.RunJobs(nil, 10, func(context.Context, int) {})
	s.Close()
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("RunJobs on a closed pool did not panic")
		}
	}()
	s.RunJobs(nil, 4, func(context.Context, int) {})
}

// TestDoFallsBackToPerCallPool: a nil *Shared is the pool-less form —
// it runs the submission itself — and a real pool runs the same
// submission on its workers.
func TestDoFallsBackToPerCallPool(t *testing.T) {
	var ran atomic.Int32
	var none *Shared
	none.RunJobs(nil, 10, func(context.Context, int) { ran.Add(1) })
	if got := ran.Load(); got != 10 {
		t.Fatalf("nil pool ran %d of 10", got)
	}
	s := NewShared(2)
	defer s.Close()
	ran.Store(0)
	s.RunJobs(nil, 10, func(context.Context, int) { ran.Add(1) })
	if got := ran.Load(); got != 10 {
		t.Fatalf("shared path ran %d of 10", got)
	}
	if st := s.Stats(); st.Submissions != 1 || st.Jobs != 10 {
		t.Fatalf("shared path did not run on the workers: %+v", st)
	}
}

// spin burns a little CPU so concurrent jobs overlap observably.
func spin() {
	x := 0
	for i := 0; i < 2000; i++ {
		x += i
	}
	_ = x
}

// TestSharedStats: the occupancy gauges and lifetime counters behind
// Engine.Stats. Mid-fan-out the pool must report non-zero in-flight
// jobs; once drained the gauges return to zero while the counters
// retain the totals.
func TestSharedStats(t *testing.T) {
	s := NewShared(2)
	defer s.Close()

	if st := s.Stats(); st.Workers != 2 || st.InFlight != 0 || st.Jobs != 0 || st.Closed {
		t.Fatalf("fresh pool stats: %+v", st)
	}

	release := make(chan struct{})
	started := make(chan struct{}, 4)
	var observed Stats
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RunJobs(context.Background(), 4, func(context.Context, int) {
			started <- struct{}{}
			<-release
		})
	}()
	// Wait until both workers hold a job, then snapshot occupancy.
	<-started
	<-started
	observed = s.Stats()
	close(release)
	<-done

	if observed.InFlight == 0 {
		t.Fatalf("mid-fan-out occupancy was zero: %+v", observed)
	}
	if observed.ActiveSubmissions != 1 {
		t.Fatalf("mid-fan-out active submissions = %d, want 1 (%+v)", observed.ActiveSubmissions, observed)
	}

	st := s.Stats()
	if st.InFlight != 0 || st.ActiveSubmissions != 0 || st.QueueDepth != 0 {
		t.Fatalf("drained pool still shows occupancy: %+v", st)
	}
	if st.Jobs != 4 || st.Submissions != 1 {
		t.Fatalf("lifetime counters after one 4-job submission: %+v", st)
	}

	// Single-job submissions run inline and are tallied separately.
	s.RunJobs(context.Background(), 1, func(context.Context, int) {})
	st = s.Stats()
	if st.InlineSubmissions != 1 || st.Jobs != 4 {
		t.Fatalf("inline submission accounting: %+v", st)
	}

	s.Close()
	if st := s.Stats(); !st.Closed {
		t.Fatalf("closed pool not reported: %+v", st)
	}
	if !s.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}
