// Package cpusim is a discrete-event simulator for uniprocessor
// scheduling of periodic/sporadic task sets under the four disciplines
// analysed in Section 2 of the reproduced paper: fixed-priority and EDF,
// each in preemptive and non-preemptive mode.
//
// Its purpose is validation: for every analysis in package sched there
// is an experiment that checks the simulated worst-case response time
// never exceeds the analytic bound, and that deadline misses only occur
// in sets the analysis rejects.
//
// Conventions match package sched: a task's jobs are nominally released
// at offset + k·T; release jitter delays *readiness* by up to J while
// deadlines and response times stay anchored to the nominal release, so
// measured response times are directly comparable to analytic R values
// (which include J).
package cpusim

import (
	"cmp"
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"profirt/internal/sched"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

// Policy selects the scheduling discipline.
type Policy int

// The four disciplines of the paper's Section 2.
const (
	FPPreemptive Policy = iota
	FPNonPreemptive
	EDFPreemptive
	EDFNonPreemptive
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FPPreemptive:
		return "FP/preemptive"
	case FPNonPreemptive:
		return "FP/non-preemptive"
	case EDFPreemptive:
		return "EDF/preemptive"
	case EDFNonPreemptive:
		return "EDF/non-preemptive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

func (p Policy) preemptive() bool { return p == FPPreemptive || p == EDFPreemptive }
func (p Policy) edf() bool        { return p == EDFPreemptive || p == EDFNonPreemptive }

// JitterMode selects how release jitter is realised in simulation.
type JitterMode int

const (
	// JitterNone releases every job at its nominal instant.
	JitterNone JitterMode = iota
	// JitterRandom delays each job's readiness by a uniform sample from
	// [0, J].
	JitterRandom
	// JitterAdversarial delays only the first job of each task by the
	// full J, compressing the gap to the second job to T − J — the
	// pattern that maximises back-to-back interference.
	JitterAdversarial
)

// Options configures a run.
type Options struct {
	Policy Policy
	// Horizon is the simulated time span. Zero selects
	// min(2·hyperperiod + max offset+jitter, 1<<22).
	Horizon Ticks
	// Offsets optionally shifts each task's first nominal release.
	// Length must be 0 or len(ts).
	Offsets []Ticks
	// Jitter selects the jitter realisation.
	Jitter JitterMode
	// Seed drives JitterRandom.
	Seed int64
}

// TaskStats aggregates per-task observations from one run.
type TaskStats struct {
	Released      int64
	Completed     int64
	Missed        int64 // completions (or censored jobs) past the deadline
	WorstResponse Ticks // max completion − nominal release (censored jobs count as horizon − release)
	TotalResponse Ticks // sum over completed jobs, for mean computation
	Censored      int64 // jobs still incomplete at the horizon
}

// MeanResponse returns the average response over completed jobs.
func (s TaskStats) MeanResponse() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalResponse) / float64(s.Completed)
}

// Result is the outcome of a simulation run.
type Result struct {
	PerTask []TaskStats
	// Idle is the cumulative idle time within the horizon.
	Idle Ticks
	// Horizon is the simulated span actually used.
	Horizon Ticks
	// Preemptions counts preemption events (0 in non-preemptive modes).
	Preemptions int64
}

// AnyMiss reports whether any task missed a deadline.
func (r Result) AnyMiss() bool {
	for _, s := range r.PerTask {
		if s.Missed > 0 {
			return true
		}
	}
	return false
}

// job is one released task instance.
type job struct {
	task      int
	nominal   Ticks // nominal release (deadline anchor)
	ready     Ticks // readiness (nominal + jitter)
	remaining Ticks
	deadline  Ticks
	seq       int64 // order of entry to the ready queue, FIFO tie-break
}

// readyQueue orders jobs by the active policy.
type readyQueue struct {
	jobs []*job
	edf  bool
}

func (q *readyQueue) Len() int { return len(q.jobs) }
func (q *readyQueue) Less(i, j int) bool {
	return higherPriority(q.edf, q.jobs[i], q.jobs[j])
}
func (q *readyQueue) Swap(i, j int) { q.jobs[i], q.jobs[j] = q.jobs[j], q.jobs[i] }
func (q *readyQueue) Push(x any)    { q.jobs = append(q.jobs, x.(*job)) }
func (q *readyQueue) Pop() any {
	old := q.jobs
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	q.jobs = old[:n-1]
	return j
}

// runScratch is the reusable working state of one Run: release
// cursors, the ready queue, the pending list, the RNG and a freelist
// of job records. Run re-initialises every field it uses, so pooled
// scratch can never leak state between runs; only Result.PerTask is
// allocated fresh (it escapes to the caller).
type runScratch struct {
	next     []Ticks
	firstJob []bool
	pending  []*job
	queue    readyQueue
	free     []*job
	rng      *rand.Rand
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// allocJob takes a record from the freelist (or the heap); every field
// is assigned by the caller.
func (sc *runScratch) allocJob() *job {
	if n := len(sc.free); n > 0 {
		j := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return j
	}
	return new(job)
}

func (sc *runScratch) freeJob(j *job) { sc.free = append(sc.free, j) }

// byReadiness orders parked jobs by readiness, then nominal release,
// then task index.
func byReadiness(a, b *job) int {
	return cmp.Or(cmp.Compare(a.ready, b.ready), cmp.Compare(a.nominal, b.nominal), cmp.Compare(a.task, b.task))
}

// higherPriority reports whether a should run instead of b: the
// earlier absolute deadline under EDF, the lower task index (index
// order is priority order) under FP, then the earlier queue entry. It
// orders the ready queue and decides preemptions.
func higherPriority(edf bool, a, b *job) bool {
	if edf {
		if a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
	} else if a.task != b.task {
		return a.task < b.task
	}
	return a.seq < b.seq
}

// Run simulates ts under the given options and returns per-task
// statistics. The task set is interpreted in priority order for the FP
// policies (index 0 highest), exactly as in package sched.
func Run(ts sched.TaskSet, opt Options) (Result, error) {
	if err := ts.Validate(); err != nil {
		return Result{}, err
	}
	if len(opt.Offsets) != 0 && len(opt.Offsets) != len(ts) {
		return Result{}, fmt.Errorf("cpusim: offsets length %d != tasks %d", len(opt.Offsets), len(ts))
	}
	horizon := opt.Horizon
	if horizon <= 0 {
		horizon = defaultSimHorizon(ts, opt.Offsets)
	}
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(opt.Seed))
	} else {
		sc.rng.Seed(opt.Seed)
	}
	rng := sc.rng

	res := Result{PerTask: make([]TaskStats, len(ts)), Horizon: horizon}
	if cap(sc.next) < len(ts) {
		sc.next = make([]Ticks, len(ts))
		sc.firstJob = make([]bool, len(ts))
	}
	next := sc.next[:len(ts)] // next nominal release per task
	firstJob := sc.firstJob[:len(ts)]
	for i := range next {
		next[i] = 0
		if len(opt.Offsets) > 0 {
			next[i] = opt.Offsets[i]
		}
		firstJob[i] = true
	}

	queue := &sc.queue
	queue.jobs = queue.jobs[:0]
	queue.edf = opt.Policy.edf()
	var running *job
	var seq int64
	now := Ticks(0)

	jitterFor := func(task int, first bool) Ticks {
		j := ts[task].J
		if j == 0 {
			return 0
		}
		switch opt.Jitter {
		case JitterRandom:
			return Ticks(rng.Int63n(int64(j) + 1))
		case JitterAdversarial:
			if first {
				return j
			}
			return 0
		default:
			return 0
		}
	}

	// pending holds jittered jobs whose nominal release has passed but
	// whose readiness is in the future, sorted by readiness, then
	// nominal release.
	pending := sc.pending[:0]

	nextReadiness := func() (Ticks, bool) {
		t := timeunit.MaxTicks
		for i := range ts {
			if next[i] < horizon {
				// The readiness of the job released at next[i] is at
				// least next[i]; jitter is drawn when the job is
				// materialised, so use nominal as the event lower bound.
				if next[i] < t {
					t = next[i]
				}
			}
		}
		if len(pending) > 0 && pending[0].ready < t {
			t = pending[0].ready
		}
		return t, t != timeunit.MaxTicks
	}

	// enqueue makes j ready; its sequence number is its FIFO place among
	// jobs of equal priority.
	enqueue := func(j *job) {
		j.seq = seq
		seq++
		heap.Push(queue, j)
	}

	// materialise first queues the parked jobs whose readiness has
	// arrived, in readiness order, then releases every job with nominal
	// release <= upTo, drawing its jitter; jobs whose readiness has
	// also arrived go to the ready queue, others park in pending. With
	// J <= T a job is ready by the nominal release of its successor, so
	// a task's jobs queue in release order. With J > T they need not:
	// a later job can be ready, and queued, first.
	materialise := func(upTo Ticks) {
		n := 0
		for n < len(pending) && pending[n].ready <= upTo {
			enqueue(pending[n])
			n++
		}
		pending = slices.Delete(pending, 0, n)
		for i := range ts {
			for next[i] <= upTo && next[i] < horizon {
				nominal := next[i]
				jit := jitterFor(i, firstJob[i])
				firstJob[i] = false
				j := sc.allocJob()
				*j = job{
					task:      i,
					nominal:   nominal,
					ready:     nominal + jit,
					remaining: ts[i].C,
					deadline:  nominal + ts[i].D,
				}
				res.PerTask[i].Released++
				next[i] += ts[i].T
				if j.ready <= upTo {
					enqueue(j)
				} else {
					k, _ := slices.BinarySearchFunc(pending, j, byReadiness)
					pending = slices.Insert(pending, k, j)
				}
			}
		}
	}

	complete := func(j *job, at Ticks) {
		st := &res.PerTask[j.task]
		st.Completed++
		resp := at - j.nominal
		if resp > st.WorstResponse {
			st.WorstResponse = resp
		}
		st.TotalResponse += resp
		if at > j.deadline {
			st.Missed++
		}
		sc.freeJob(j)
	}

	for now < horizon {
		materialise(now)
		if running == nil {
			if queue.Len() == 0 {
				t, ok := nextReadiness()
				if !ok || t >= horizon {
					res.Idle += horizon - now
					now = horizon
					break
				}
				res.Idle += t - now
				now = t
				continue
			}
			running = heap.Pop(queue).(*job)
			continue
		}

		finish := now + running.remaining
		// The next readiness event that could matter:
		tNext, okNext := nextReadiness()

		if opt.Policy.preemptive() && okNext && tNext < finish {
			// run until tNext, then reconsider
			running.remaining -= tNext - now
			now = tNext
			materialise(now)
			if queue.Len() > 0 {
				top := queue.jobs[0]
				if higherPriority(queue.edf, top, running) {
					heap.Push(queue, running)
					running = heap.Pop(queue).(*job)
					res.Preemptions++
				}
			}
			continue
		}
		// Non-preemptive, or nothing arrives before completion: run to
		// completion (capped at horizon).
		if finish > horizon {
			running.remaining -= horizon - now
			now = horizon
			break
		}
		now = finish
		complete(running, now)
		running = nil
	}

	// Censor still-active work at the horizon.
	censor := func(j *job) {
		st := &res.PerTask[j.task]
		st.Censored++
		resp := horizon - j.nominal
		if resp > st.WorstResponse {
			st.WorstResponse = resp
		}
		if horizon > j.deadline {
			st.Missed++
		}
		sc.freeJob(j)
	}
	if running != nil {
		censor(running)
	}
	for queue.Len() > 0 {
		censor(heap.Pop(queue).(*job))
	}
	for _, p := range pending {
		censor(p)
	}
	// Park the (now job-free) pending list back in the scratch so its
	// capacity survives; clear stale job pointers first.
	clear(pending)
	sc.pending = pending[:0]
	clear(queue.jobs[:cap(queue.jobs)])
	queue.jobs = queue.jobs[:0]
	return res, nil
}

// defaultSimHorizon mirrors the analysis horizons: two hyperperiods plus
// slack for offsets and jitter, capped to keep runs fast.
func defaultSimHorizon(ts sched.TaskSet, offsets []Ticks) Ticks {
	h := ts.Hyperperiod()
	h = timeunit.MulSat(h, 2)
	var extra Ticks
	for i, t := range ts {
		e := t.D + t.J
		if len(offsets) > 0 {
			e += offsets[i]
		}
		if e > extra {
			extra = e
		}
	}
	h = timeunit.AddSat(h, extra)
	const cap = Ticks(1) << 22
	if h > cap {
		return cap
	}
	return h
}
