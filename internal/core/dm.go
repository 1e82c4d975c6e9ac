package core

import (
	"math/big"
	"sync"

	"profirt/internal/sched"
	"profirt/internal/timeunit"
)

// DMOptions tunes the deadline-monotonic message response-time analysis
// of Eq. 16.
type DMOptions struct {
	// Literal selects the paper's Eq. 16 exactly as printed:
	//
	//	R_i = T*_cycle + Σ_{j∈hp(i)} ⌈(R_i + J_j)/T_j⌉ · T_cycle
	//
	// with T*_cycle = T_cycle except for the lowest-priority stream,
	// where it is 0. Two aspects make the literal form optimistic in
	// boundary scenarios (quantified by experiment E9): the missing
	// own-transmission token visit on top of the blocking visit, and
	// the ⌈·⌉ interference that misses a request released exactly at
	// the start instant.
	//
	// The default (false) is the revised conservative form mirroring
	// the corrected non-preemptive Eq. 1 mapping: for every request
	// q = 0, 1, … of stream i inside the level-i busy period,
	//
	//	w_i(q) = B_i + q·T_cycle + Σ_{j∈hp(i)} (⌊(w_i(q)+J_j)/T_j⌋+1)·T_cycle
	//	R_i    = J_i + max_q { w_i(q) + T_cycle − q·T_i }
	//
	// with B_i = T_cycle when any lower-priority request (a high
	// stream below i, or any low-priority traffic) can occupy the
	// one-slot stack queue, else 0. The own-jitter term J_i anchors
	// the bound at the nominal release, matching how the simulator
	// measures response times.
	Literal bool
	// BlockingFromLowPriority marks that the master also carries
	// low-priority traffic, which can occupy the stack slot just like a
	// lower-priority high stream (affects B_i for the lowest stream in
	// the revised analysis).
	BlockingFromLowPriority bool
}

// msgHorizon caps every message busy period and fixed-point iterate:
// one reaching 1<<40 yields timeunit.MaxTicks.
const msgHorizon = Ticks(1) << 40

// JitterCap bounds the release jitter a chain analysis (holistic,
// topology) feeds from one hop's bound into the next hop. It equals
// msgHorizon: a divergent (MaxTicks) upstream bound still yields a
// downstream bound of at least the cap, while the arithmetic inside
// the kernels stays far from Ticks overflow.
const JitterCap = msgHorizon

// streamTask maps a stream onto the task model the message bounds are
// built from: every request costs one token visit, C = T_cycle.
func streamTask(s Stream, tcycle Ticks) sched.Task {
	return sched.Task{C: tcycle, D: s.D, T: s.T, J: s.J}
}

// dmScratch is the reusable working state of one DMResponseTimes call:
// the DM priority order, each stream's rank, the streams mapped to
// tasks in that order, the per-rank divergence flags from the exact
// prefix-utilization sweep, and the big.Rat accumulators. Pooled so
// repeated analyses (the memo layer's misses, the holistic rounds, the
// topology fixed point) stop re-allocating.
type dmScratch struct {
	order  []int         // stream indices, highest DM priority first
	pos    []int         // pos[i] = rank of stream i in order
	tasks  sched.TaskSet // tasks[k] = streamTask(order[k])
	hpDiv  []bool        // rank k: utilization of order[:k] >= 1 (and k > 0)
	lvlDiv []bool        // rank k: utilization of order[:k+1] >= 1
	sum    *big.Rat
	term   *big.Rat
	one    *big.Rat
}

var dmScratchPool = sync.Pool{New: func() any {
	return &dmScratch{sum: new(big.Rat), term: new(big.Rat), one: big.NewRat(1, 1)}
}}

// prepare sizes the scratch, sorts the priority order, maps the streams
// to tasks and evaluates the divergence flags with a single exact
// prefix-utilization sweep.
func (sc *dmScratch) prepare(streams []Stream, tcycle Ticks) {
	n := len(streams)
	if cap(sc.order) < n {
		sc.order = make([]int, n)
		sc.pos = make([]int, n)
		sc.tasks = make(sched.TaskSet, n)
		sc.hpDiv = make([]bool, n)
		sc.lvlDiv = make([]bool, n)
	}
	sc.order = sc.order[:n]
	sc.pos = sc.pos[:n]
	sc.tasks = sc.tasks[:n]
	sc.hpDiv = sc.hpDiv[:n]
	sc.lvlDiv = sc.lvlDiv[:n]
	// Stable insertion sort by deadline: starting from the identity
	// permutation with strict-less comparisons yields the DM order with
	// ties broken by index (matching ap.Queue's FIFO tie-break).
	for i := range sc.order {
		sc.order[i] = i
	}
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && streams[sc.order[j]].D < streams[sc.order[j-1]].D {
			sc.order[j], sc.order[j-1] = sc.order[j-1], sc.order[j]
			j--
		}
	}
	sc.sum.SetInt64(0)
	for k, idx := range sc.order {
		s := streams[idx]
		sc.pos[idx] = k
		sc.tasks[k] = streamTask(s, tcycle)
		sc.hpDiv[k] = k > 0 && sc.lvlDiv[k-1]
		if s.T > 0 {
			sc.term.SetFrac64(int64(tcycle), int64(s.T))
			sc.sum.Add(sc.sum, sc.term)
		}
		sc.lvlDiv[k] = sc.sum.Cmp(sc.one) >= 0
	}
}

// DMResponseTimes evaluates the worst-case response time of every high
// priority stream of one master under the paper's architecture with a
// DM-ordered AP queue (Eq. 16). It is the non-preemptive task analysis
// of Eqs. 1–2 (sched.FixedPoint, sched.RevisedResponseTime) applied to
// the streams mapped to tasks {C = T_cycle, D, T, J} in DM order.
// Results align with the input order. Streams whose busy period or
// fixed-point iterate reaches 1<<40 get timeunit.MaxTicks.
func DMResponseTimes(streams []Stream, tcycle Ticks, opts DMOptions) []Ticks {
	sc := dmScratchPool.Get().(*dmScratch)
	sc.prepare(streams, tcycle)
	out := make([]Ticks, len(streams))
	for i, p := range sc.pos {
		out[i] = sc.responseTime(p, tcycle, opts)
	}
	dmScratchPool.Put(sc)
	return out
}

// responseTime bounds the stream at DM rank p: its interference set
// hp(i) is the task prefix above it.
func (sc *dmScratch) responseTime(p int, tcycle Ticks, opts DMOptions) Ticks {
	// With higher-priority message load at or above one request per
	// token cycle the recurrences diverge; and with the level-i load
	// (hp plus stream i itself) at or above that point the level-i busy
	// period examined by the revised analysis never ends. Report both
	// directly instead of iterating toward the horizon.
	if sc.hpDiv[p] || !opts.Literal && sc.lvlDiv[p] {
		return timeunit.MaxTicks
	}
	// lowerHigh: a lower-priority *high* stream exists below i.
	lowerHigh := p < len(sc.tasks)-1
	if opts.Literal {
		// Paper-exact Eq. 16: base T*, which is zero only for the
		// lowest-priority stream (no lower-priority high stream; the
		// paper does not consider low-priority traffic here).
		var tstar Ticks
		if lowerHigh {
			tstar = tcycle
		}
		return sched.FixedPoint(sc.tasks[:p], tstar, true, msgHorizon)
	}
	// Revised: Eq. 2's blocking is one token visit whenever any
	// lower-priority request can occupy the one-slot stack queue.
	var blocking Ticks
	if lowerHigh || opts.BlockingFromLowPriority {
		blocking = tcycle
	}
	return sched.RevisedResponseTime(sc.tasks[:p+1], blocking, false, msgHorizon)
}

// DMSchedulable applies Eq. 16 (in the selected variant) across a
// network whose masters all use DM dispatching, with T_cycle from
// Eq. 14, and checks R <= D per stream.
func DMSchedulable(n Network, opts DMOptions) (bool, []StreamVerdict) {
	return SchedulableWith(n, func(m Master, tc Ticks) []Ticks {
		o := opts
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return DMResponseTimes(m.High, tc, o)
	})
}
