// Package pool provides the bounded worker pool behind every batch
// layer (the experiment cell-job harness, the Engine's analysis and
// simulation batches, the sharded topology simulator, campaigns): n
// independent jobs identified by index, executed by a fixed set of
// long-lived workers that any number of concurrent submitters share.
// Callers own determinism — each job must write only to state keyed by
// its own index — so results never depend on which worker ran a job.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"profirt/internal/obs"
)

// Shared is a fixed set of worker goroutines serving any number of
// concurrent submitters. All of them are admitted onto the one bounded
// worker set, their jobs interleaved round-robin so no submitter
// starves and the total number of running jobs never exceeds the pool
// width.
//
// Admission is fair at job granularity: active submissions queue in a
// ring, and each worker takes one index from the head submission before
// it is re-queued at the tail, so M concurrent submissions each see
// roughly workers/M of the pool.
//
// A submission runs inline on its caller instead, in index order, when
// the pool has one worker, when it has one job, when the *Shared is nil
// (the pool-less form tests and internal callers use), and when it is
// re-entrant: submitted from one of the pool's own workers by a job or
// a callback a job invokes. Blocking a worker on work only workers can
// run would deadlock a pool whose workers all sit in such calls, so
// re-entrant submissions are detected by goroutine id and run on the
// worker that made them. The precise bound is therefore pool-width jobs
// on the workers, plus any callers running inline submissions.
type Shared struct {
	mu      sync.Mutex
	cond    *sync.Cond // workers wait here for queued work
	queue   []*submission
	gids    map[int64]struct{} // goroutine ids of this pool's workers
	closed  bool
	workers int
	wg      sync.WaitGroup

	// Occupancy gauges and lifetime counters behind Stats. The gauges
	// (inFlight, active) are mutated only where the mutex is already
	// held by the dispatch bookkeeping, so tracking them costs nothing
	// extra; the counters are plain int64s under the same mutex. Inline
	// submissions never touch the workers, so they are tallied
	// separately with an atomic.
	inFlight    int   // jobs executing on workers right now
	active      int   // admitted submissions not yet settled
	submissions int64 // total submissions admitted to the workers
	jobs        int64 // total jobs executed on the workers
	inline      atomic.Int64

	// obs, when set (NewSharedObserved), records per-job queue-wait
	// and run-time histograms. Purely observational: recording never
	// blocks dispatch and timing never reaches job results.
	obs *obs.PoolMetrics
}

// Stats is a point-in-time snapshot of a Shared pool's occupancy and
// lifetime counters (see Shared.Stats).
type Stats struct {
	// Workers is the pool width.
	Workers int
	// InFlight is the number of jobs executing on workers at the
	// snapshot instant — the pool's occupancy, between 0 and Workers.
	InFlight int
	// QueueDepth is the number of submissions waiting in the admission
	// ring at the snapshot instant.
	QueueDepth int
	// ActiveSubmissions counts RunJobs calls admitted to the workers and
	// not yet settled.
	ActiveSubmissions int
	// Submissions counts RunJobs calls ever admitted to the workers.
	Submissions int64
	// InlineSubmissions counts calls that ran on their caller instead:
	// submissions to a width-1 pool, single-job submissions and
	// re-entrant submissions from a worker.
	InlineSubmissions int64
	// Jobs counts jobs executed on the workers since construction.
	Jobs int64
	// Closed reports whether Close has been called.
	Closed bool
}

// Stats snapshots the pool's occupancy gauges and lifetime counters.
// Safe to call from any goroutine at any time, including concurrently
// with Close.
func (s *Shared) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Workers:           s.workers,
		InFlight:          s.inFlight,
		QueueDepth:        len(s.queue),
		ActiveSubmissions: s.active,
		Submissions:       s.submissions,
		Jobs:              s.jobs,
		Closed:            s.closed,
	}
	s.mu.Unlock()
	st.InlineSubmissions = s.inline.Load()
	return st
}

// submission is one RunJobs call in flight on a Shared pool.
type submission struct {
	ctx      context.Context
	fn       func(context.Context, int)
	n        int
	next     int // next index to dispatch
	inflight int
	stopped  bool // ctx cancelled or a job panicked: dispatch no more
	panicked bool
	panicVal any
	done     chan struct{}

	enqueued time.Time // ring-entry instant; set only when the pool records metrics
	traced   bool      // ctx carries an obs.Tracer: jobs open pool.job spans
}

// hasWork reports whether the submission still has indices to dispatch.
// Caller holds the pool mutex.
func (s *submission) hasWork() bool { return !s.stopped && s.next < s.n }

// settled reports whether the submission is finished: nothing running
// and nothing left to dispatch. Caller holds the pool mutex.
func (s *submission) settled() bool { return s.inflight == 0 && !s.hasWork() }

// NewShared builds a pool of `workers` long-lived goroutines
// (workers <= 0 selects runtime.GOMAXPROCS(0)). Close releases them.
func NewShared(workers int) *Shared {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Shared{workers: workers, gids: make(map[int64]struct{}, workers)}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// NewSharedObserved is NewShared plus latency instrumentation: every
// job records its queue wait (submission enqueue to dispatch) and run
// time into m. m must outlive the pool; a nil m is NewShared.
func NewSharedObserved(workers int, m *obs.PoolMetrics) *Shared {
	s := NewShared(workers)
	s.obs = m
	return s
}

// Close stops the workers after their current jobs and waits for them
// to exit. Submissions still in flight are completed first; RunJobs
// after Close panics. Close is idempotent.
func (s *Shared) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// onWorker reports whether the calling goroutine is one of this pool's
// workers. One stack-header parse (obs.GoroutineID) per multi-job
// submission — microseconds, paid once per submission, never per job.
func (s *Shared) onWorker() bool {
	gid := obs.GoroutineID()
	s.mu.Lock()
	_, ok := s.gids[gid]
	s.mu.Unlock()
	return ok
}

// RunJobs evaluates fn(ctx', i) for every i in [0, n) and blocks until
// every dispatched job has finished. Each job receives a context
// descended from ctx that carries the job's pool.job tracing span (when
// ctx is traced), so work the job does — cache lookups, nested spans —
// nests under the job in trace exports. Once ctx is done no further
// indices are dispatched and the in-flight jobs are awaited (indices
// never dispatched are simply not called); a nil ctx never cancels. A
// panicking job stops dispatch and the panic is re-raised here with its
// original value. Any number of goroutines may call RunJobs
// concurrently — that is the point.
//
// The inline cases (see Shared) run on the caller in index order. On
// an observed pool (NewSharedObserved) every job records its run time;
// worker-run jobs also record their queue wait.
func (s *Shared) RunJobs(ctx context.Context, n int, fn func(ctx context.Context, i int)) {
	if n <= 0 {
		return
	}
	if s == nil {
		runInline(ctx, nil, n, fn)
		return
	}
	if s.workers == 1 || n == 1 || s.onWorker() {
		s.inline.Add(1)
		runInline(ctx, s.obs, n, fn)
		return
	}
	if ctx != nil && ctx.Err() != nil {
		return
	}
	sub := &submission{ctx: ctx, fn: fn, n: n, done: make(chan struct{})}
	if sub.traced = obs.TracerFrom(ctx) != nil; sub.traced {
		var sp obs.Span
		sub.ctx, sp = obs.StartSpan(ctx, "pool.submit")
		defer sp.End()
	}
	if s.obs != nil {
		sub.enqueued = s.obs.Clock.Now()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("pool: RunJobs on a closed Shared pool")
	}
	s.queue = append(s.queue, sub)
	s.submissions++
	s.active++
	s.cond.Broadcast()
	s.mu.Unlock()
	<-sub.done
	if sub.panicked {
		panic(sub.panicVal)
	}
}

// runInline executes a submission's jobs on the calling goroutine in
// index order, each with the same pool.job span a worker would apply.
// A panic propagates to the caller as is; cancellation stops before
// the next index. pm, when non-nil, records each job's run time; queue
// wait is not recorded, since inline jobs never enter the ring.
func runInline(ctx context.Context, pm *obs.PoolMetrics, n int, fn func(context.Context, int)) {
	traced := obs.TracerFrom(ctx) != nil
	// Chain the clock reads: each job's end reading doubles as the next
	// job's start, so timing n inline jobs costs n+1 reads instead of
	// 2n — the difference is measurable where the wall clock has no
	// fast path.
	var prev time.Time
	if pm != nil {
		prev = pm.Clock.Now()
	}
	for i := 0; i < n; i++ {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		runInlineJob(ctx, traced, i, fn)
		if pm != nil {
			now := pm.Clock.Now()
			pm.Run.Observe(now.Sub(prev))
			prev = now
		}
	}
}

// runInlineJob runs one inline job under its pool.job span.
func runInlineJob(ctx context.Context, traced bool, i int, fn func(context.Context, int)) {
	if traced {
		var sp obs.Span
		ctx, sp = obs.StartSpanArg(ctx, "pool.job", int64(i))
		defer sp.End()
	}
	fn(ctx, i)
}

// worker is the loop every pool goroutine runs: take one (submission,
// index) pair, execute it, repeat; sleep when the ring is empty.
func (s *Shared) worker() {
	defer s.wg.Done()
	gid := obs.GoroutineID()
	s.mu.Lock()
	s.gids[gid] = struct{}{}
	for {
		sub, idx, ok := s.take()
		if !ok {
			if s.closed {
				// Goroutine ids are recycled by the runtime; drop ours
				// so a future goroutine reusing it is not misread as a
				// worker.
				delete(s.gids, gid)
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		s.mu.Unlock()
		s.exec(sub, idx)
		s.mu.Lock()
	}
}

// take pops ring entries until it finds a submission with dispatchable
// work, claims one index from it, and re-queues it at the tail when it
// has more. Exhausted or stopped submissions are dropped for good: once
// a submission runs out of work it never regains any. Caller holds the
// pool mutex.
func (s *Shared) take() (*submission, int, bool) {
	for len(s.queue) > 0 {
		sub := s.queue[0]
		s.queue = s.queue[1:]
		if !sub.hasWork() {
			continue
		}
		idx := sub.next
		sub.next++
		sub.inflight++
		s.inFlight++
		if sub.hasWork() {
			s.queue = append(s.queue, sub)
		}
		return sub, idx, true
	}
	return nil, 0, false
}

// exec runs one job and settles its bookkeeping: panics latch the
// submission stopped (first value kept for the submitter to re-raise),
// cancellation latches it stopped, and the last job signals the
// submitter.
func (s *Shared) exec(sub *submission, idx int) {
	defer func() {
		r := recover()
		s.mu.Lock()
		sub.inflight--
		s.inFlight--
		s.jobs++
		if r != nil {
			sub.stopped = true
			if !sub.panicked {
				sub.panicked = true
				sub.panicVal = r
			}
		}
		if sub.ctx != nil && sub.ctx.Err() != nil {
			sub.stopped = true
		}
		if sub.settled() {
			s.active--
			close(sub.done)
		}
		s.mu.Unlock()
	}()
	if sub.ctx != nil && sub.ctx.Err() != nil {
		return
	}
	jctx := sub.ctx
	if sub.traced {
		var sp obs.Span
		jctx, sp = obs.StartSpanArg(jctx, "pool.job", int64(idx))
		defer sp.End()
	}
	if pm := s.obs; pm != nil {
		start := pm.Clock.Now()
		pm.QueueWait.Observe(start.Sub(sub.enqueued))
		sub.fn(jctx, idx)
		// A panicking job skips run-time recording; the panic is the
		// signal that matters there.
		pm.Run.Observe(pm.Clock.Now().Sub(start))
		return
	}
	sub.fn(jctx, idx)
}
