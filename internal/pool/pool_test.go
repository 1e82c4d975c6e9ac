package pool

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"profirt/internal/obs"
)

// TestRunCoversEveryIndexOnce varies the pool width — nil, the
// GOMAXPROCS default (<= 0), inline width 1, and widths below and above
// the job count — and checks that each index runs exactly once.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := NewShared(workers)
			defer s.Close()
			coversEveryIndexOnce(t, s, 57)
		})
	}
	t.Run("nil", func(t *testing.T) { coversEveryIndexOnce(t, nil, 57) })
}

func coversEveryIndexOnce(t *testing.T, s *Shared, n int) {
	t.Helper()
	visits := make([]atomic.Int32, n)
	s.RunJobs(nil, n, func(_ context.Context, i int) { visits[i].Add(1) })
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	eachPool(t, func(t *testing.T, s *Shared) {
		called := false
		s.RunJobs(nil, 0, func(context.Context, int) { called = true })
		s.RunJobs(nil, -3, func(context.Context, int) { called = true })
		if called {
			t.Error("fn called for empty job set")
		}
	})
}

// TestRunRepanicsOnCaller: a panicking job is re-raised on the
// submitter with its original value; the inline shapes stop at the
// panicking index.
func TestRunRepanicsOnCaller(t *testing.T) {
	eachPool(t, func(t *testing.T, s *Shared) {
		var ran atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("recovered %v, want \"boom\"", r)
				}
			}()
			s.RunJobs(nil, 16, func(_ context.Context, i int) {
				ran.Add(1)
				if i == 3 {
					panic("boom")
				}
			})
			t.Error("RunJobs returned instead of panicking")
		}()
		if s == nil || s.Workers() == 1 {
			if got := ran.Load(); got != 4 {
				t.Fatalf("inline submission ran %d jobs past a panic at index 3", got)
			}
		}
	})
}

// TestRunSequentialOnCallingGoroutine: a nil pool and a width-1 pool
// run every job on the calling goroutine in index order (the
// sequential guarantee the experiment harness documents).
func TestRunSequentialOnCallingGoroutine(t *testing.T) {
	narrow := NewShared(1)
	defer narrow.Close()
	for _, s := range []*Shared{nil, narrow} {
		caller := obs.GoroutineID()
		var order []int
		s.RunJobs(nil, 5, func(_ context.Context, i int) {
			if g := obs.GoroutineID(); g != caller {
				t.Errorf("job %d ran on goroutine %d, caller is %d", i, g, caller)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("sequential order broken: %v", order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("ran %d jobs, want 5", len(order))
		}
	}
}
