package sched

import (
	"math"

	"profirt/internal/timeunit"
)

// LiuLaylandBound returns the rate-monotonic utilisation bound
// n·(2^(1/n) − 1) from Liu & Layland [21]; task sets with total
// utilisation below the bound are schedulable under preemptive RM with
// implicit deadlines.
func LiuLaylandBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// FPOptions tunes the fixed-priority response-time analyses.
type FPOptions struct {
	// Preemptive selects Joseph–Pandya RTA; otherwise the
	// non-preemptive analysis with the blocking factor of the paper's
	// Eqs. 1–2 is used.
	Preemptive bool
	// LiteralPaperRecurrence selects the paper's exact formulations:
	// for the non-preemptive case Eq. 1 with interference
	// Σ ⌈(w+J_j)/T_j⌉·C_j evaluated for the first job of the busy
	// period only. That form is optimistic in two ways (the flaws later
	// refuted for the analogous CAN analysis by Davis et al., RTSJ
	// 2007): it misses a higher-priority release coinciding exactly
	// with the start instant w, and it ignores later jobs of the task
	// inside the level-i busy period, which inherit push-through
	// blocking from the job before them. The default (false) uses the
	// revised, sound analysis: interference Σ (⌊(w+J_j)/T_j⌋+1)·C_j and
	// examination of every job q = 0, 1, … in the level-i busy period,
	// for the preemptive mode as well (where multi-job examination
	// matters once w(0)+J exceeds T).
	LiteralPaperRecurrence bool
}

// defaultHorizon picks an iteration cap large enough that any response
// time that matters (relative to deadlines) is found exactly: the
// hyperperiod plus the largest deadline and jitter, capped at 1<<40.
func defaultHorizon(ts TaskSet) Ticks {
	h := ts.Hyperperiod()
	var extra Ticks
	for _, t := range ts {
		if t.D > extra {
			extra = t.D
		}
		if t.J > extra-1 {
			extra = timeunit.Max(extra, t.J+1)
		}
	}
	h = timeunit.AddSat(h, extra)
	const cap = Ticks(1) << 40
	if h > cap || h == timeunit.MaxTicks {
		return cap
	}
	return h
}

// FixedPoint is the fixed-priority interference recurrence shared by
// every response-time analysis here: the least positive fixed point of
//
//	w = base + Σ_{j∈hp} n_j(w)·C_j
//
// with n_j(w) = ⌈(w+J_j)/T_j⌉ when ceil is set (completion instants,
// the paper's Eq. 1) and ⌊(w+J_j)/T_j⌋+1 otherwise (start instants,
// where a release exactly at w wins the dispatch). Mapping a message
// stream to the task {C = T_cycle, D, T, J} turns Eq. 1 into Eq. 16.
// Once an iterate exceeds horizon the result is timeunit.MaxTicks.
func FixedPoint(hp TaskSet, base Ticks, ceil bool, horizon Ticks) Ticks {
	return fixedPointFrom(hp, base, 0, ceil, horizon)
}

// fixedPointFrom is FixedPoint with the iteration started at
// max(seed, base + Σ C_j). A seed no larger than the least fixed point
// gives FixedPoint's result exactly, in fewer iterations: the iterates
// still rise monotonically to the same fixed point, and a fixed point
// above horizon is MaxTicks unless FixedPoint's own seed already is it.
func fixedPointFrom(hp TaskSet, base, seed Ticks, ceil bool, horizon Ticks) Ticks {
	// The seed must be positive and no larger than the least positive
	// fixed point: otherwise w = 0 is a spurious fixed point of the
	// ceil form when base = 0, because ⌈0/T_j⌉ misses the
	// critical-instant releases. One job of every higher-priority task
	// is always part of that least fixed point.
	w0 := base
	for _, t := range hp {
		w0 = timeunit.AddSat(w0, t.C)
	}
	if w0 <= 0 {
		w0 = 1
	}
	w := max(w0, seed)
	for {
		next := base
		for _, t := range hp {
			var njobs Ticks
			if ceil {
				njobs = timeunit.CeilDiv(w+t.J, t.T)
			} else {
				njobs = timeunit.FloorDiv(w+t.J, t.T) + 1
			}
			next = timeunit.AddSat(next, timeunit.MulSat(njobs, t.C))
		}
		if next == w {
			if w > horizon && w != w0 {
				return timeunit.MaxTicks
			}
			return w
		}
		w = next
		if w > horizon || w == timeunit.MaxTicks {
			return timeunit.MaxTicks
		}
	}
}

// BusyPeriod returns the longest busy period of the set after one
// blocking interval B with every task released together at its
// maximum rate: the least fixed point of
//
//	L = B + Σ_j ⌈(L+J_j)/T_j⌉·C_j
//
// seeded with B + Σ C_j. A result at or above horizon means the busy
// period reached it (a load at or above 1 need not close): an iterate
// reaching horizon stops the iteration and returns horizon.
func BusyPeriod(ts TaskSet, blocking, horizon Ticks) Ticks {
	l := blocking
	for _, t := range ts {
		l = timeunit.AddSat(l, t.C)
	}
	for {
		next := blocking
		for _, t := range ts {
			next = timeunit.AddSat(next,
				timeunit.MulSat(timeunit.CeilDiv(l+t.J, t.T), t.C))
		}
		if next == l {
			return l
		}
		l = next
		if l >= horizon || l == timeunit.MaxTicks {
			return horizon
		}
	}
}

// RevisedResponseTime is the revised, sound fixed-priority analysis of
// the last task of level (the tasks before it are hp(i), highest
// first) after blocking B_i: it examines every job q of task i inside
// the level-i busy period (Davis et al.'s corrected formulation),
//
//	preemptive:      w(q) = FixedPoint(B_i + (q+1)·C_i, ⌈·⌉),  finish = w(q)
//	non-preemptive:  w(q) = FixedPoint(B_i + q·C_i, ⌊·⌋+1),    finish = w(q) + C_i
//	R_i = max_q { finish − q·T_i } + J_i
//
// The busy period spans hp(i) ∪ {i}: it does not end when one job of i
// completes if higher-priority arrivals bridge the gap to i's next
// release, which is exactly the push-through scenario the single-job
// analysis misses. A busy period reaching horizon, even one that
// closes at its first iterate, yields timeunit.MaxTicks.
func RevisedResponseTime(level TaskSet, blocking Ticks, preemptive bool, horizon Ticks) Ticks {
	hp, ti := level[:len(level)-1], level[len(level)-1]
	busy := BusyPeriod(level, blocking, horizon)
	if busy >= horizon {
		return timeunit.MaxTicks
	}
	// maxJobs bounds pathological near-saturation busy periods: a task
	// with that many backlogged jobs is unschedulable for any practical
	// deadline, so MaxTicks is the honest answer.
	const maxJobs = 1 << 17
	njobs := timeunit.Max(timeunit.CeilDiv(busy+ti.J, ti.T), 1)
	if njobs > maxJobs {
		return timeunit.MaxTicks
	}
	// w(q) ≥ w(q−1) + C_i (one more C_i in the base, interference
	// non-decreasing in w), so job q's iteration starts there.
	var best, seed Ticks
	for q := Ticks(0); q < njobs; q++ {
		// Preemptive: w(q) covers the completion of job q.
		// Non-preemptive: w(q) covers its start, where a release exactly
		// at the start instant wins the dispatch; the job then runs C_i.
		var w, finish Ticks
		if preemptive {
			w = fixedPointFrom(hp, timeunit.AddSat(blocking, timeunit.MulSat(q+1, ti.C)), seed, true, horizon)
			finish = w
		} else {
			w = fixedPointFrom(hp, timeunit.AddSat(blocking, timeunit.MulSat(q, ti.C)), seed, false, horizon)
			finish = timeunit.AddSat(w, ti.C)
		}
		if finish == timeunit.MaxTicks {
			return timeunit.MaxTicks
		}
		seed = timeunit.AddSat(w, ti.C)
		best = timeunit.Max(best, finish-timeunit.MulSat(q, ti.T))
	}
	return timeunit.AddSat(best, ti.J)
}

// ResponseTimesFP computes per-task worst-case response times for a
// fixed-priority ordered set (index 0 = highest priority).
//
// Preemptive (Joseph & Pandya [23], with jitter per Audsley et al. [24]),
// with B_i = Task.B:
//
//	w_i = C_i + B_i + Σ_{j∈hp(i)} ⌈(w_i + J_j)/T_j⌉·C_j,   R_i = J_i + w_i
//
// Non-preemptive (the paper's Eqs. 1–2):
//
//	B_i = max(Task.B, max_{j∈lp(i)} C_j),
//	w_i = B_i + Σ_{j∈hp(i)} ⌈(w_i + J_j)/T_j⌉·C_j,         R_i = J_i + w_i + C_i
//
// The non-preemptive B_i is a max, not a sum: a job is blocked by at
// most one lower-priority job, whose run covers any critical section
// inside it.
//
// Tasks whose iteration exceeds the horizon (hyperperiod plus the
// largest deadline and jitter, capped at 1<<40) get timeunit.MaxTicks.
func ResponseTimesFP(ts TaskSet, opts FPOptions) []Ticks {
	return ResponseTimesFPInto(make([]Ticks, 0, len(ts)), ts, opts)
}

// ResponseTimesFPInto is ResponseTimesFP writing into dst (reused from
// length zero; grown as needed), for callers that run the analysis in a
// loop — the holistic fixed point evaluates it once per master per
// round.
func ResponseTimesFPInto(dst []Ticks, ts TaskSet, opts FPOptions) []Ticks {
	horizon := defaultHorizon(ts)
	dst = dst[:0]
	for i := range ts {
		dst = append(dst, responseTimeFPOne(ts, i, opts.Preemptive, opts.LiteralPaperRecurrence, horizon))
	}
	return dst
}

func responseTimeFPOne(ts TaskSet, i int, preemptive, literal bool, horizon Ticks) Ticks {
	ti := ts[i]
	// The revised analysis walks the level-i busy period job by job;
	// with Σ_{j<=i} C_j/T_j > 1 that busy period never ends, so report
	// divergence directly instead of crawling toward the horizon. (At
	// exactly 1 the busy period may still close — e.g. C = T — so the
	// strict case is left to the job walk, which is additionally capped.)
	if !literal && ts[:i+1].UtilizationExceedsOne() {
		return timeunit.MaxTicks
	}
	blocking := ti.B
	if !preemptive {
		// Eq. 2: longest lower-priority execution can already occupy the
		// processor (or, for messages, the single-slot stack queue).
		for _, t := range ts[i+1:] {
			blocking = timeunit.Max(blocking, t.C)
		}
	}
	if !literal {
		return RevisedResponseTime(ts[:i+1], blocking, preemptive, horizon)
	}
	// Paper-exact single-job forms: Joseph–Pandya (preemptive) and
	// Eq. 1 (non-preemptive), first job of the busy period only.
	if preemptive {
		return timeunit.AddSat(FixedPoint(ts[:i], blocking+ti.C, true, horizon), ti.J)
	}
	w := FixedPoint(ts[:i], blocking, true, horizon)
	return timeunit.AddSat(timeunit.AddSat(w, ti.C), ti.J)
}

// FPSchedulable runs ResponseTimesFP and checks R_i <= D_i for every
// task, returning the response times for inspection.
func FPSchedulable(ts TaskSet, opts FPOptions) (bool, []Ticks) {
	rs := ResponseTimesFP(ts, opts)
	ok := true
	for i, r := range rs {
		if r > ts[i].D {
			ok = false
		}
	}
	return ok, rs
}
