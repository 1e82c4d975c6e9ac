package core

import (
	"fmt"
	"slices"

	"profirt/internal/timeunit"
)

// FCFSResponseTime evaluates Eq. 11 for master k: with the stock FCFS
// outgoing queue, at most one message per stream can be pending (two
// would already imply a missed deadline), each pending message takes at
// most one token visit, and visits are at most T_cycle apart:
//
//	R_i^k = Q_i^k + Ch_i^k = nh^k · T_cycle
//
// The bound is the same for every stream of the master.
func FCFSResponseTime(m Master, tcycle Ticks) Ticks {
	return timeunit.MulSat(Ticks(m.NH()), tcycle)
}

// StreamVerdict pairs a stream with its response-time bound and
// schedulability verdict for reporting.
type StreamVerdict struct {
	Master string
	Stream string
	// D is the stream's relative deadline.
	D Ticks
	// R is the worst-case response-time bound.
	R Ticks
	// OK is R <= D (Eq. 12's per-stream condition).
	OK bool
}

// FCFSSchedulable evaluates the pre-run-time condition of Eq. 12 over
// the whole network: Dh_i^k >= R_i^k for every high-priority stream of
// every master, under T_cycle from Eq. 14.
func FCFSSchedulable(n Network) (bool, []StreamVerdict) {
	var rs []Ticks // one buffer for every master's bounds
	return SchedulableWith(n, func(m Master, tc Ticks) []Ticks {
		r := FCFSResponseTime(m, tc)
		rs = slices.Grow(rs[:0], m.NH())
		for range m.High {
			rs = append(rs, r)
		}
		return rs
	})
}

// MaxTTR evaluates Eq. 15: the largest target token rotation time that
// keeps every high-priority stream schedulable under FCFS:
//
//	T_TR <= min_{k,i} ( Dh_i^k / nh^k − T_del )
//
// It returns an error when no positive T_TR satisfies the condition
// (the deadline structure is infeasible for this network) — in that
// case the returned value is the (non-positive) bound itself, useful
// for diagnosis.
func MaxTTR(n Network) (Ticks, error) {
	tdel := n.TokenDelay()
	bound := timeunit.MaxTicks
	for _, m := range n.Masters {
		nh := Ticks(m.NH())
		if nh == 0 {
			continue
		}
		for _, s := range m.High {
			b := timeunit.FloorDiv(s.D, nh) - tdel
			if b < bound {
				bound = b
			}
		}
	}
	if bound == timeunit.MaxTicks {
		return 0, fmt.Errorf("core: network has no high-priority streams")
	}
	if bound <= 0 {
		return bound, fmt.Errorf("core: no positive TTR satisfies Eq. 15 (bound %d)", bound)
	}
	return bound, nil
}
