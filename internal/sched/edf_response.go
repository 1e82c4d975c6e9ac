package sched

import "profirt/internal/timeunit"

// EDFResponseTime is the per-offset EDF analysis shared by the task
// and message bounds. For every offset a of
// deadlineInstants(ts, i, D_i, window), that is
//
//	a ∈ ({k·T_i} ∪ ⋃_{j≠i} {k·T_j + D_j − J_j − D_i}) ∩ [0, window],
//
// the points where a term of the recurrence below steps, it takes the
// least fixed point of
//
//	L = base(a) + Σ_{j≠i, D_j−J_j ≤ a+D_i} min{n_j(L), 1+⌊(a+D_i−D_j+J_j)/T_j⌋}·C_j
//
// preemptive (Spuri, the paper's Eqs. 6–8):
//
//	n_j(L) = ⌈(L+J_j)/T_j⌉,   base(a) = (1+⌊a/T_i⌋)·C_i,      finish = L
//
// non-preemptive (George et al., Eqs. 9–10), where L ends at the start
// of the analysed job:
//
//	n_j(L) = ⌊(L+J_j)/T_j⌋+1, base(a) = B(a) + ⌊a/T_i⌋·C_i,  finish = L + C_i
//	B(a)   = max{blocking, max_{j≠i, D_j−J_j > a+D_i} C_j − served}
//
// and returns R_i = max{C_i, max_a (finish − a)} + J_i. B(a) bounds
// the one job with a later deadline that may already hold the
// processor: served = 1 for a task, whose job started strictly before
// has at most C_j − 1 left, and 0 for a message, which holds the stack
// slot for a whole token visit; blocking is a floor that applies at
// every offset (the low-priority traffic of Eq. 18). Both are ignored
// when preemptive. Once an iterate exceeds horizon + a the result is
// timeunit.MaxTicks. The offsets are built in *offsets, which callers
// reuse across tasks.
func EDFResponseTime(ts TaskSet, i int, preemptive bool, blocking, served, window, horizon Ticks, offsets *[]Ticks) Ticks {
	ti := ts[i]
	*offsets = deadlineInstants(*offsets, ts, i, ti.D, window)
	best := ti.C
	// The offsets ascend and the right-hand side never decreases in a:
	// base(a) and every interference term grow with a, and a task that
	// leaves B(a) joins the interference with at least one job, at
	// least what it blocked. So each offset's least fixed point is at
	// least the previous one's, and its iteration starts there.
	var l Ticks
	for _, a := range *offsets {
		adi := a + ti.D
		base := timeunit.MulSat(timeunit.FloorDiv(a, ti.T), ti.C)
		if preemptive {
			base = timeunit.AddSat(base, ti.C)
		} else {
			b := blocking
			for j, tj := range ts {
				if j != i && tj.D-tj.J > adi {
					b = timeunit.Max(b, tj.C-served)
				}
			}
			base = timeunit.AddSat(base, b)
		}
		for {
			next := base
			for j, tj := range ts {
				if j == i || tj.D-tj.J > adi {
					continue
				}
				var n Ticks
				if preemptive {
					n = timeunit.CeilDiv(l+tj.J, tj.T)
				} else {
					n = timeunit.FloorDiv(l+tj.J, tj.T) + 1
				}
				n = timeunit.Min(n, 1+timeunit.FloorDiv(adi-tj.D+tj.J, tj.T))
				next = timeunit.AddSat(next, timeunit.MulSat(n, tj.C))
			}
			if next == l {
				break
			}
			l = next
			if l > timeunit.AddSat(horizon, a) || l == timeunit.MaxTicks {
				return timeunit.MaxTicks
			}
		}
		finish := l
		if !preemptive {
			finish = timeunit.AddSat(l, ti.C)
		}
		best = timeunit.Max(best, finish-a)
	}
	return timeunit.AddSat(best, ti.J)
}

// ResponseTimesEDFPreemptive computes per-task worst-case response times
// under preemptive EDF following Spuri [32] (the paper's Eqs. 6–8), on
// EDFResponseTime:
//
//	L_i(a) = W_i(a, L_i(a)) + (1 + ⌊a/T_i⌋)·C_i
//	r_i(a) = max{C_i, L_i(a) − a},  R_i = max_a r_i(a) + J_i
//
// Release jitter is handled: the other tasks' deadline instants, and
// with them the offsets and the deadline window of W_i, shift by
// −J_j, interference counts ⌈(t+J_j)/T_j⌉ jobs, the analysed task's
// own releases k·T_i stay offsets and the result adds J_i. With
// U > 1 every task gets timeunit.MaxTicks; the synchronous busy period
// bounds both the offsets examined and the iterates.
func ResponseTimesEDFPreemptive(ts TaskSet) []Ticks {
	return edfTaskResponseTimes(ts, true)
}

// ResponseTimesEDFNonPreemptive computes per-task worst-case response
// times under non-preemptive EDF following George et al. [31] (the
// paper's Eqs. 9–10), on EDFResponseTime. The busy period analysed
// precedes the *start* of the instance (a later-deadline job can block
// once, contributing at most C_j − 1):
//
//	L_i(a) = max_{D_j−J_j > a+D_i}{C_j − 1} + W*_i(a, L_i(a)) + ⌊a/T_i⌋·C_i
//	r_i(a) = max{C_i, C_i + L_i(a) − a},  R_i = max_a r_i(a) + J_i
//
// Release jitter is handled as in ResponseTimesEDFPreemptive, with
// W* counting ⌊(t+J_j)/T_j⌋+1 jobs.
func ResponseTimesEDFNonPreemptive(ts TaskSet) []Ticks {
	return edfTaskResponseTimes(ts, false)
}

// edfTaskResponseTimes holds the task-level pre-check and window of the
// two EDF analyses: U > 1 diverges, otherwise the synchronous busy
// period is both the offset window and the iterate cap.
func edfTaskResponseTimes(ts TaskSet, preemptive bool) []Ticks {
	out := make([]Ticks, len(ts))
	if ts.UtilizationExceedsOne() {
		for i := range out {
			out[i] = timeunit.MaxTicks
		}
		return out
	}
	window := SynchronousBusyPeriod(ts, 0)
	var offsets []Ticks
	for i := range ts {
		out[i] = EDFResponseTime(ts, i, preemptive, 0, 1, window, window, &offsets)
	}
	return out
}
