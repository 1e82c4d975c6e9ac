// Package core implements the paper's primary contribution: the
// pre-run-time schedulability analysis of message streams in a PROFIBUS
// network, for the stock FCFS outgoing queue (Section 3: Eqs. 11–15)
// and for the proposed application-process priority-queue architecture
// under deadline-monotonic and earliest-deadline-first dispatching
// (Section 4: Eqs. 16–18), plus the end-to-end delay composition of
// Section 4.2.
//
// The DM and EDF bounds keep only the paper's mapping from messages to
// tasks: each stream becomes the task {C = T_cycle, D, T, J}, since
// every request costs at most one token visit, and the fixed-priority
// recurrence, the busy period and the per-offset EDF analysis come
// from internal/sched. What stays here is the message side of each
// analysis: the divergence pre-checks, the stack-slot blocking (B_i
// for DM, T*_cycle for EDF) and the 1<<40 horizon — a busy period or
// iterate reaching it yields timeunit.MaxTicks.
//
// The model quantities follow the paper's notation:
//
//	C_hi^k — worst-case length of a message cycle of stream S_hi^k
//	         (request + response + turnaround + allowed retries)
//	Cl^k   — longest low-priority message cycle of master k
//	C_M^k  — longest message cycle of master k (Eq. 13's summand)
//	T_del  — worst-case token lateness (Eq. 13)
//	T_cycle — upper bound between consecutive token arrivals (Eq. 14)
package core

import (
	"errors"
	"fmt"

	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base (bit times).
type Ticks = timeunit.Ticks

// Stream is one high-priority message stream of a master: the paper's
// S_hi^k with worst-case message cycle length Ch (C_hi^k), relative
// deadline D, minimum inter-release time T and release jitter J
// inherited from the generating task (Sec. 4.1).
type Stream struct {
	Name string
	Ch   Ticks
	D    Ticks
	T    Ticks
	J    Ticks
}

// Validate reports structural problems.
func (s Stream) Validate() error {
	switch {
	case s.Ch <= 0:
		return fmt.Errorf("core: stream %q: Ch must be positive", s.Name)
	case s.D <= 0:
		return fmt.Errorf("core: stream %q: D must be positive", s.Name)
	case s.T <= 0:
		return fmt.Errorf("core: stream %q: T must be positive", s.Name)
	case s.J < 0:
		return fmt.Errorf("core: stream %q: J must be non-negative", s.Name)
	}
	return nil
}

// Master is one master station's traffic: its high-priority streams and
// the longest low-priority message cycle it may start (0 if it carries
// no low-priority traffic).
type Master struct {
	Name       string
	High       []Stream
	LongestLow Ticks
}

// NH returns nh^k, the number of high-priority message streams.
func (m Master) NH() int { return len(m.High) }

// LongestHigh returns max_i C_hi^k (0 with no high streams).
func (m Master) LongestHigh() Ticks {
	var w Ticks
	for _, s := range m.High {
		if s.Ch > w {
			w = s.Ch
		}
	}
	return w
}

// LongestCycle returns C_M^k = max{max_i Ch_i^k, Cl^k}, the longest
// message cycle the master can start (Eq. 13's per-master term).
func (m Master) LongestCycle() Ticks {
	return timeunit.Max(m.LongestHigh(), m.LongestLow)
}

// Network is a PROFIBUS configuration under analysis: the ring's
// masters and the common target token rotation time T_TR. TokenPass
// optionally accounts for the token-passing overhead per hop (the
// paper's footnote-7 "ring latency and other protocol overheads");
// the literal Eq. 13/14 ignore it (set 0 for the paper-exact bound).
type Network struct {
	TTR       Ticks
	Masters   []Master
	TokenPass Ticks
	// GapPoll is the worst-case duration of one ring-maintenance
	// FDL-Status poll (0 when GAP maintenance is disabled). A master
	// can start a poll with marginal token-holding time left exactly
	// like a message cycle, so each master's lateness contribution is
	// max(C_M^k, GapPoll).
	GapPoll Ticks
}

// Validate reports structural problems.
func (n Network) Validate() error {
	if len(n.Masters) == 0 {
		return errors.New("core: network has no masters")
	}
	if n.TTR <= 0 {
		return errors.New("core: TTR must be positive")
	}
	if n.TokenPass < 0 {
		return errors.New("core: TokenPass must be non-negative")
	}
	if n.GapPoll < 0 {
		return errors.New("core: GapPoll must be non-negative")
	}
	for _, m := range n.Masters {
		for _, s := range m.High {
			if err := s.Validate(); err != nil {
				return err
			}
		}
		if m.LongestLow < 0 {
			return fmt.Errorf("core: master %q: LongestLow must be non-negative", m.Name)
		}
	}
	return nil
}

// TokenDelay evaluates the paper's Eq. 13: the worst-case token
// lateness T_del = Σ_k C_M^k — master k overruns its token-holding
// time by its longest cycle and every following master, receiving a
// late token, still transmits one message. The per-hop token-passing
// overhead (when configured) is added once per master, since a full
// delayed rotation traverses every hop.
func (n Network) TokenDelay() Ticks {
	var d Ticks
	for _, m := range n.Masters {
		d = timeunit.AddSat(d, timeunit.Max(m.LongestCycle(), n.GapPoll))
	}
	d = timeunit.AddSat(d, timeunit.MulSat(Ticks(len(n.Masters)), n.TokenPass))
	return d
}

// RefinedTokenDelay evaluates the tighter bound the paper attributes to
// [14]: only one master can be the T_TH overrunner (contributing its
// longest cycle of either class); every other master, holding a late
// token, transmits at most one *high-priority* message. The result is
// max over the choice of overrunner.
func (n Network) RefinedTokenDelay() Ticks {
	if len(n.Masters) == 0 {
		return 0
	}
	// Σ_j CHmax^j precomputed; swap each candidate overrunner in turn.
	var sumHigh Ticks
	for _, m := range n.Masters {
		sumHigh = timeunit.AddSat(sumHigh, m.LongestHigh())
	}
	var best Ticks
	for _, m := range n.Masters {
		d := timeunit.AddSat(sumHigh-m.LongestHigh(),
			timeunit.Max(m.LongestCycle(), n.GapPoll))
		if d > best {
			best = d
		}
	}
	best = timeunit.AddSat(best, timeunit.MulSat(Ticks(len(n.Masters)), n.TokenPass))
	return best
}

// TokenCycle evaluates Eq. 14: T_cycle = T_TR + T_del, the upper bound
// on the time between consecutive token arrivals at any master.
func (n Network) TokenCycle() Ticks {
	return timeunit.AddSat(n.TTR, n.TokenDelay())
}

// RefinedTokenCycle is TokenCycle with the refined lateness bound.
func (n Network) RefinedTokenCycle() Ticks {
	return timeunit.AddSat(n.TTR, n.RefinedTokenDelay())
}
