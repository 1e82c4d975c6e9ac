package core

import (
	"slices"
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
// The offsets examined span the synchronous busy period of the streams
// mapped to tasks {C = T_cycle, D, T, J} after one blocking visit
// (sched.BusyPeriod). Results align with the input order; when the
// message utilisation Σ T_cycle/T_j reaches 1, or that busy period or
// a per-offset iterate reaches 1<<40, streams get timeunit.MaxTicks.
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
	for i := range streams {
		out[i] = edfMessageResponseOne(streams, i, tcycle, busy, opts, sc)
	}
	return out
}

// edfScratch holds the mapped task set and the candidate-offset buffer
// reused across the per-stream evaluations of one EDFResponseTimes
// call (and, via the pool, across calls).
type edfScratch struct {
	tasks sched.TaskSet
	cands []Ticks
}

var edfScratchPool = sync.Pool{New: func() any { return new(edfScratch) }}

// edfMessageCandidates enumerates the paper's Eq. 10 offsets adapted
// with jitter: a ∈ ∪_j {k·T_j + D_j − D_i − J_j} ∪ {0}, clipped to
// [0, limit]. The result is sorted and duplicate-free, built in the
// reusable buffer.
func edfMessageCandidates(buf []Ticks, streams []Stream, i int, limit Ticks) []Ticks {
	out := append(buf[:0], 0)
	di := streams[i].D
	for _, s := range streams {
		base := s.D - di - s.J
		for k := Ticks(0); ; k++ {
			a := base + timeunit.MulSat(k, s.T)
			if a > limit {
				break
			}
			if a >= 0 {
				out = append(out, a)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func edfMessageResponseOne(streams []Stream, i int, tcycle, busy Ticks, opts EDFOptions, sc *edfScratch) Ticks {
	si := streams[i]
	var best Ticks
	sc.cands = edfMessageCandidates(sc.cands, streams, i, busy)
	for _, a := range sc.cands {
		adi := a + si.D

		// Blocking: one stack-slot occupant with a later absolute
		// deadline (or any low-priority request).
		var blocking Ticks
		if opts.BlockingFromLowPriority {
			blocking = tcycle
		} else {
			for j, s := range streams {
				if j != i && s.D-s.J > adi {
					blocking = tcycle
					break
				}
			}
		}

		earlier := timeunit.MulSat(timeunit.FloorDiv(a, si.T), tcycle)

		l := blocking
		for {
			var w Ticks
			for j, s := range streams {
				if j == i || s.D-s.J > adi {
					continue
				}
				byRate := 1 + timeunit.FloorDiv(l+s.J, s.T)
				byDeadline := 1 + timeunit.FloorDiv(adi-s.D+s.J, s.T)
				w = timeunit.AddSat(w,
					timeunit.MulSat(timeunit.Min(byRate, byDeadline), tcycle))
			}
			next := timeunit.AddSat(timeunit.AddSat(blocking, w), earlier)
			if next == l {
				break
			}
			l = next
			if l > timeunit.AddSat(msgHorizon, a) || l == timeunit.MaxTicks {
				return timeunit.MaxTicks
			}
		}
		r := timeunit.Max(tcycle, timeunit.AddSat(tcycle, l-a))
		if r > best {
			best = r
		}
	}
	return timeunit.AddSat(best, si.J)
}

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
