package core

import (
	"sync"

	"profirt/internal/sched"
	"profirt/internal/timeunit"
)

// EDFOptions tunes the EDF message response-time analysis of
// Eqs. 17–18.
type EDFOptions struct {
	// BlockingFromLowPriority marks that low-priority traffic can
	// occupy the stack slot (it always has a "later deadline" for the
	// blocking term).
	BlockingFromLowPriority bool
}

// EDFResponseTimes evaluates the worst-case response time of every
// high-priority stream of one master under the paper's architecture
// with an EDF-ordered AP queue (Eqs. 17–18):
//
//	R_i(a) = max{ T_cycle, L_i(a) + T_cycle − a }
//	L_i(a) = T*_cycle + W*_i(a, L_i(a)) + ⌊a/T_i⌋·T_cycle
//	W*_i(a,t) = Σ_{j≠i, D_j−J_j ≤ a+D_i}
//	            min{ 1+⌊(t+J_j)/T_j⌋, 1+⌊(a+D_i−D_j+J_j)/T_j⌋ } · T_cycle
//
// with T*_cycle = T_cycle when some request with an absolute deadline
// beyond a+D_i can hold the one-slot stack queue, else 0. On top of the
// paper's formulation, the stream's own release jitter J_i is added to
// the result so the bound is anchored at the nominal release (matching
// the simulator's measurement and the Sec. 4.1 inheritance model).
//
// This is George et al.'s non-preemptive analysis (Eqs. 9–10) on the
// streams mapped to tasks {C = T_cycle, D, T, J}: sched.EDFResponseTime
// with a later-deadline occupant blocking for a whole token visit, and
// for every offset when low-priority traffic exists. The offsets
// examined span the synchronous busy period of that task set after one
// blocking visit (sched.BusyPeriod). Results align with the input
// order; when the message utilisation Σ T_cycle/T_j reaches 1, or that
// busy period or a per-offset iterate reaches 1<<40, streams get
// timeunit.MaxTicks.
func EDFResponseTimes(streams []Stream, tcycle Ticks, opts EDFOptions) []Ticks {
	out := make([]Ticks, len(streams))
	if len(streams) == 0 {
		return out
	}
	sc := edfScratchPool.Get().(*edfScratch)
	defer edfScratchPool.Put(sc)
	sc.tasks = sc.tasks[:0]
	for _, s := range streams {
		sc.tasks = append(sc.tasks, streamTask(s, tcycle))
	}
	// The utilisation check is exact and up front, so the busy-period
	// iteration never crawls toward the horizon.
	busy := msgHorizon
	if !sc.tasks.UtilizationExceedsOrEqualsOne() {
		busy = sched.BusyPeriod(sc.tasks, tcycle, msgHorizon)
	}
	if busy >= msgHorizon {
		for i := range out {
			out[i] = timeunit.MaxTicks
		}
		return out
	}
	var low Ticks
	if opts.BlockingFromLowPriority {
		low = tcycle
	}
	for i := range streams {
		out[i] = sched.EDFResponseTime(sc.tasks, i, false, low, 0, busy, msgHorizon, &sc.offsets)
	}
	return out
}

// edfScratch holds the mapped task set and the candidate-offset buffer
// reused across the per-stream evaluations of one EDFResponseTimes
// call (and, via the pool, across calls).
type edfScratch struct {
	tasks   sched.TaskSet
	offsets []Ticks
}

var edfScratchPool = sync.Pool{New: func() any { return new(edfScratch) }}

// EDFSchedulableNet applies Eqs. 17–18 across a network whose masters
// all use EDF dispatching, with T_cycle from Eq. 14.
func EDFSchedulableNet(n Network, opts EDFOptions) (bool, []StreamVerdict) {
	return SchedulableWith(n, func(m Master, tc Ticks) []Ticks {
		o := opts
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return EDFResponseTimes(m.High, tc, o)
	})
}
