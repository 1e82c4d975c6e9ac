// Package sched implements the single-processor pre-run-time
// schedulability analyses surveyed in Section 2 of Tovar & Vasques
// (IPPS/SPDP 1999): the Liu–Layland utilisation bound and response-time
// analyses for fixed-priority (RM/DM) and dynamic-priority (EDF)
// scheduling, in both preemptive and non-preemptive contexts.
//
// The fixed-priority recurrence (FixedPoint, BusyPeriod,
// RevisedResponseTime) and the per-offset EDF analysis
// (EDFResponseTime) exist once and serve both the task analyses here
// and the message analyses of internal/core, which map each stream to
// the task {C = T_cycle, D, T, J}. Every response-time analysis handles
// release jitter the same way: interference counts the releases a
// jitter of J_j can compress into a window, and R_i includes J_i, so
// bounds are anchored at the nominal release. The bounds are checked
// against simulation for J ≤ T; with J > T a later job of a task can
// be ready before an earlier one, which the fixed-priority and
// non-preemptive EDF analyses do not model.
//
// Conventions:
//   - Time is integer (timeunit.Ticks); all fixed-point iterations are
//     exact.
//   - A TaskSet passed to a fixed-priority analysis is interpreted in
//     priority order: index 0 is the highest priority. Use SortRM /
//     SortDM to produce such an ordering.
//   - Analyses that can diverge (utilisation too high) return
//     timeunit.MaxTicks for the affected task instead of an error, so
//     callers can still inspect the other tasks.
package sched

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"profirt/internal/timeunit"
)

// Ticks re-exports the time base for brevity inside this package's API.
type Ticks = timeunit.Ticks

// Task is a periodic or sporadic task (or, by inheritance, a message
// stream): worst-case execution (transmission) time C, relative deadline
// D, minimum inter-arrival time T, and release jitter J. B is additional
// blocking from non-independence (e.g. critical sections). The
// non-preemptive analyses block by the larger of B and the paper's
// Eq. 2 lower-priority blocking, not their sum: a non-preemptive job
// is blocked by at most one lower-priority job, whose run covers any
// critical section inside it.
type Task struct {
	Name string
	C    Ticks
	D    Ticks
	T    Ticks
	J    Ticks
	B    Ticks
}

// Utilization returns C/T for this task.
func (t Task) Utilization() float64 {
	if t.T == 0 {
		return 0
	}
	return float64(t.C) / float64(t.T)
}

// Validate reports structural problems with the task parameters.
func (t Task) Validate() error {
	switch {
	case t.C <= 0:
		return fmt.Errorf("task %q: C must be positive, got %d", t.Name, t.C)
	case t.T <= 0:
		return fmt.Errorf("task %q: T must be positive, got %d", t.Name, t.T)
	case t.D <= 0:
		return fmt.Errorf("task %q: D must be positive, got %d", t.Name, t.D)
	case t.J < 0:
		return fmt.Errorf("task %q: J must be non-negative, got %d", t.Name, t.J)
	case t.B < 0:
		return fmt.Errorf("task %q: B must be non-negative, got %d", t.Name, t.B)
	case t.C > t.T:
		return fmt.Errorf("task %q: C (%d) exceeds T (%d)", t.Name, t.C, t.T)
	}
	return nil
}

// TaskSet is an ordered collection of tasks. For fixed-priority analyses
// the order is the priority order (index 0 highest).
type TaskSet []Task

// Validate checks every task and the aggregate utilisation bound U <= 1
// is NOT enforced here (several analyses want to observe infeasible
// sets); it only checks per-task structure.
func (ts TaskSet) Validate() error {
	if len(ts) == 0 {
		return errors.New("sched: empty task set")
	}
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Utilization returns the total utilisation sum(Ci/Ti).
func (ts TaskSet) Utilization() float64 {
	u := 0.0
	for _, t := range ts {
		u += t.Utilization()
	}
	return u
}

// UtilizationExceedsOne reports Σ Ci/Ti > 1 exactly (rational
// arithmetic), avoiding float rounding at the U = 1 boundary where the
// busy-period iterations change behaviour.
func (ts TaskSet) UtilizationExceedsOne() bool {
	return ts.utilizationCmpOne() > 0
}

// UtilizationExceedsOrEqualsOne reports Σ Ci/Ti >= 1 exactly: the load
// at which synchronous busy periods stop terminating.
func (ts TaskSet) UtilizationExceedsOrEqualsOne() bool {
	return ts.utilizationCmpOne() >= 0
}

func (ts TaskSet) utilizationCmpOne() int {
	sum := new(big.Rat)
	for _, t := range ts {
		if t.T <= 0 {
			continue
		}
		sum.Add(sum, big.NewRat(int64(t.C), int64(t.T)))
	}
	return sum.Cmp(big.NewRat(1, 1))
}

// Clone returns a deep copy of the set.
func (ts TaskSet) Clone() TaskSet {
	return append(TaskSet(nil), ts...)
}

// Periods returns the slice of task periods, for hyperperiod computation.
func (ts TaskSet) Periods() []Ticks {
	ps := make([]Ticks, len(ts))
	for i, t := range ts {
		ps[i] = t.T
	}
	return ps
}

// Hyperperiod returns the LCM of all periods (saturating).
func (ts TaskSet) Hyperperiod() Ticks {
	return timeunit.Hyperperiod(ts.Periods())
}

// MaxC returns the largest worst-case execution time in the set, or 0
// for an empty set.
func (ts TaskSet) MaxC() Ticks {
	var m Ticks
	for _, t := range ts {
		if t.C > m {
			m = t.C
		}
	}
	return m
}

// SortRM returns a copy of ts sorted rate-monotonically: shorter period
// means higher priority (earlier index). The sort is stable so callers
// get a deterministic order for equal periods.
func SortRM(ts TaskSet) TaskSet {
	out := ts.Clone()
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// SortDM returns a copy of ts sorted deadline-monotonically: shorter
// relative deadline means higher priority.
func SortDM(ts TaskSet) TaskSet {
	out := ts.Clone()
	sort.SliceStable(out, func(i, j int) bool { return out[i].D < out[j].D })
	return out
}
