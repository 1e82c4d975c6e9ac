package sched

import (
	"slices"
	"sync"

	"profirt/internal/timeunit"
)

// DemandBound returns the processor demand h(t): the maximum cumulative
// execution requirement of jobs with both release and absolute deadline
// inside an interval of length t starting at a synchronous release.
//
// This is the left-hand side of the paper's Eq. 3. The paper prints the
// job-count factor as ⌈(t−Di)/Ti⌉⁺, which misses the job whose deadline
// falls exactly at t whenever t−Di is a multiple of Ti (t = Di counts
// none); the count of deadlines in [0, t] is max(0, ⌊(t+Ji−Di)/Ti⌋+1),
// which the implementation uses.
func DemandBound(ts TaskSet, t Ticks) Ticks {
	var h Ticks
	for _, tk := range ts {
		n := timeunit.JobsWithDeadlineBy(t, tk.D, tk.T, tk.J)
		h = timeunit.AddSat(h, timeunit.MulSat(n, tk.C))
	}
	return h
}

// SynchronousBusyPeriod returns the length L of the longest processor
// busy period starting from a synchronous release at maximum rate:
// BusyPeriod with no blocking, the least fixed point of
// W(t) = Σ ⌈(t+Ji)/Ti⌉·Ci seeded with ΣCi. If the iteration reaches the
// horizon (utilisation at or above 1 can make it diverge) the horizon
// value is returned; a horizon of 0 selects the default cap.
func SynchronousBusyPeriod(ts TaskSet, horizon Ticks) Ticks {
	if horizon <= 0 {
		horizon = defaultHorizon(ts)
	}
	return BusyPeriod(ts, 0, horizon)
}

// ckptPool recycles checkpoint buffers across the demand-style tests:
// the experiment sweeps run them once per generated task set, and the
// checkpoint list is by far their largest allocation.
var ckptPool = sync.Pool{New: func() any { return new(checkpointBuf) }}

type checkpointBuf struct{ pts []Ticks }

// deadlineInstants enumerates the instants k·T_j + D_j − J_j − shift
// (k ∈ ℕ) of every task j that lie in [0, limit]; the sorted,
// duplicate-free list is built in buf. With shift 0 these are the
// absolute deadlines at which the demand bound h(t) steps (paper
// Eq. 3's set S); with shift D_i they are the release offsets at which
// the EDF response time of task i can be maximal (Eqs. 8 and 10). Task
// own, if own ≥ 0, enters without its jitter: the EDF kernel counts the
// analysed task's jobs from an unjittered release at 0 and adds J_i to
// the result, so that count steps at k·T_i.
func deadlineInstants(buf []Ticks, ts TaskSet, own int, shift, limit Ticks) []Ticks {
	out := buf[:0]
	for j, t := range ts {
		d := t.D - shift
		if j != own {
			d -= t.J
		}
		if d < 0 {
			d += timeunit.MulSat(timeunit.CeilDiv(-d, t.T), t.T)
		}
		for ; d <= limit; d += t.T {
			out = append(out, d)
			if d > limit-t.T { // avoid overflow on the increment
				break
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// FeasibilityReport carries the outcome of a demand-style feasibility
// test along with diagnosis data.
type FeasibilityReport struct {
	// Feasible is the verdict.
	Feasible bool
	// ViolationAt is the first checkpoint where demand exceeded supply
	// (0 when feasible).
	ViolationAt Ticks
	// DemandAtViolation is the demand at that point.
	DemandAtViolation Ticks
	// Checked is the number of checkpoints evaluated.
	Checked int
	// Limit is the upper bound of the scanned interval (t_max).
	Limit Ticks
}

// demandTest is the checkpoint loop shared by the demand-style tests
// (Eqs. 3–5): with ΣCi/Ti ≤ 1 (otherwise immediately infeasible) it
// checks h(t) + blocking(t) ≤ t at every deadline instant t ≥ from up
// to t_max, the synchronous busy period. Under jitter h can already
// have stepped at from without from being an instant: a task with
// J > D has its first deadline before the window start, so h(0) > 0
// while its first instant lies at D − J + kT > 0. from is then examined
// first.
func demandTest(ts TaskSet, from Ticks, blocking func(t Ticks) Ticks) FeasibilityReport {
	if ts.Utilization() > 1 {
		return FeasibilityReport{}
	}
	limit := SynchronousBusyPeriod(ts, 0)
	rep := FeasibilityReport{Feasible: true, Limit: limit}
	buf := ckptPool.Get().(*checkpointBuf)
	defer ckptPool.Put(buf)
	buf.pts = deadlineInstants(buf.pts, ts, -1, 0, limit)
	i, found := slices.BinarySearch(buf.pts, from)
	if !found && from <= limit && DemandBound(ts, from) > 0 {
		buf.pts = slices.Insert(buf.pts, i, from)
	}
	for _, t := range buf.pts[i:] {
		rep.Checked++
		if h := timeunit.AddSat(DemandBound(ts, t), blocking(t)); h > t {
			rep.Feasible, rep.ViolationAt, rep.DemandAtViolation = false, t, h
			return rep
		}
	}
	return rep
}

// EDFFeasiblePreemptive applies the processor-demand test of the paper's
// Eq. 3: ∀t ∈ S ∩ [0, t_max]: h(t) ≤ t, with t_max the synchronous busy
// period. Requires ΣCi/Ti ≤ 1 (otherwise immediately infeasible).
func EDFFeasiblePreemptive(ts TaskSet) FeasibilityReport {
	return demandTest(ts, 0, func(Ticks) Ticks { return 0 })
}

// EDFFeasibleNonPreemptiveZS applies the sufficient non-preemptive EDF
// test of Zheng & Shin [25,30] (the paper's Eq. 4):
//
//	∀t ≥ min Di:  h(t) + max_i{Ci} ≤ t
//
// The blocking term conservatively assumes the longest message/task of
// the whole set blocks at every instant, which George et al. [31] showed
// to be pessimistic (see EDFFeasibleNonPreemptiveGeorge). The scan
// starts where h first steps, min_i max(0, Di − Ji): min Di without
// jitter, earlier under it (a task with J ≥ D makes it 0).
func EDFFeasibleNonPreemptiveZS(ts TaskSet) FeasibilityReport {
	from := timeunit.MaxTicks
	for _, t := range ts {
		from = timeunit.Min(from, timeunit.Max(0, t.D-t.J))
	}
	maxC := ts.MaxC()
	return demandTest(ts, from, func(Ticks) Ticks { return maxC })
}

// EDFFeasibleNonPreemptiveGeorge applies the refined non-preemptive EDF
// test of George, Rivierre & Spuri [31] (the paper's Eq. 5): the
// blocking at time t comes only from a task whose deadline is beyond t,
// and a non-preemptive job that starts strictly before t has at most
// Ci − 1 remaining:
//
//	∀t ∈ S:  h(t) + max_{i: Di > t}{Ci − 1} ≤ t
//
// (max over an empty index set is 0).
func EDFFeasibleNonPreemptiveGeorge(ts TaskSet) FeasibilityReport {
	return demandTest(ts, 0, func(t Ticks) Ticks {
		var b Ticks
		for _, tk := range ts {
			if tk.D > t {
				b = timeunit.Max(b, tk.C-1)
			}
		}
		return b
	})
}
