package pool

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestRunContextNilIsRun: a nil context never cancels, so it runs the
// whole submission just as a live one does.
func TestRunContextNilIsRun(t *testing.T) {
	eachPool(t, func(t *testing.T, s *Shared) {
		for _, ctx := range []context.Context{nil, context.Background()} {
			var ran atomic.Int64
			s.RunJobs(ctx, 100, func(context.Context, int) { ran.Add(1) })
			if ran.Load() != 100 {
				t.Fatalf("ctx=%v: ran %d of 100 jobs", ctx, ran.Load())
			}
		}
	})
}

func TestRunContextCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eachPool(t, func(t *testing.T, s *Shared) {
		var ran atomic.Int64
		s.RunJobs(ctx, 100, func(context.Context, int) { ran.Add(1) })
		if ran.Load() != 0 {
			t.Fatalf("cancelled submission ran %d jobs", ran.Load())
		}
	})
}

// TestRunContextCancelMidway: once the context is done no further index
// is dispatched. Jobs already running on workers may finish; the inline
// shapes stop before the very next index.
func TestRunContextCancelMidway(t *testing.T) {
	eachPool(t, func(t *testing.T, s *Shared) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran atomic.Int64
		s.RunJobs(ctx, 1_000, func(context.Context, int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		got := ran.Load()
		if got < 10 || got == 1_000 {
			t.Fatalf("ran %d jobs; want >=10 and <1000", got)
		}
		if (s == nil || s.Stats().Workers == 1) && got != 10 {
			t.Fatalf("inline submission ran %d jobs, want 10", got)
		}
	})
}
