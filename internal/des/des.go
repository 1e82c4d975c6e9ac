// Package des is a minimal deterministic discrete-event simulation
// engine: an event calendar ordered by (time, priority, insertion
// sequence) and a run loop. The PROFIBUS network simulator is built on
// it; keeping the engine generic also makes its scheduling semantics
// independently testable.
//
// The calendar is a hand-rolled binary min-heap over event values, not
// container/heap over pointers: the simulator schedules one event per
// message release, bus cycle and token pass, so a per-event heap
// allocation dominates the whole-suite allocation profile. For the same
// reason an event is a small value Payload dispatched through a single
// engine-level handler (SetDispatch) instead of a per-event closure,
// and an Engine can be wiped for reuse with Reset while keeping its
// calendar capacity.
package des

import (
	"fmt"

	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

// Payload is the value argument of an event: a small bag of operands
// interpreted by the engine's dispatch handler (see SetDispatch). Kind
// conventionally selects the handler branch; the remaining fields are
// its operands.
type Payload struct {
	// A is a time-valued operand.
	A Ticks
	// X, Y and Z are three integer operands (typically indexes).
	X, Y, Z int32
	// Kind selects the dispatch branch; Flags carries boolean operands.
	Kind, Flags uint8
}

// PayloadFunc handles payload events (see SetDispatch).
type PayloadFunc func(p Payload)

// event is a calendar entry; the engine dispatch handler receives p
// when it fires.
type event struct {
	at   Ticks
	seq  int64
	p    Payload
	prio int
}

// Engine is the simulation core. The zero value is ready to use.
type Engine struct {
	now      Ticks
	seq      int64
	events   []event // binary min-heap by (at, prio, seq)
	dispatch PayloadFunc
	// Processed counts fired events.
	Processed int64
}

// Now returns the current simulation time.
func (e *Engine) Now() Ticks { return e.now }

// SetDispatch installs the handler for payload events. It must be set
// before the first SchedulePayload fires; one handler serves the whole
// engine so scheduling an event allocates nothing.
func (e *Engine) SetDispatch(fn PayloadFunc) { e.dispatch = fn }

// SchedulePayload enqueues an event at an absolute time with an
// explicit same-instant priority. The engine dispatch handler
// (SetDispatch) receives p when the event fires. Events at the same
// instant fire in ascending priority then insertion order. Scheduling
// in the past panics: it always indicates a modelling bug.
func (e *Engine) SchedulePayload(at Ticks, prio int, p Payload) {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling into the past (%d < %d)", at, e.now))
	}
	e.push(event{at: at, prio: prio, seq: e.seq, p: p})
	e.seq++
}

// SchedulePayloadAfter enqueues an event delay ticks from now with
// priority 0. The instant saturates at MaxTicks, where it never fires:
// a delay near MaxTicks (a slot time from the wire) must not wrap into
// the past.
func (e *Engine) SchedulePayloadAfter(delay Ticks, p Payload) {
	e.SchedulePayload(timeunit.AddSat(e.now, delay), 0, p)
}

// Run processes events in order until the calendar is empty or the
// horizon is passed. Events scheduled exactly at the horizon do not
// fire (the simulated interval is [0, horizon)). It returns the
// simulation time at exit.
func (e *Engine) Run(horizon Ticks) Ticks {
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.at >= horizon {
			// Leave the event in place so a later Run with a larger
			// horizon resumes.
			e.now = horizon
			return e.now
		}
		e.pop()
		e.now = ev.at
		e.Processed++
		e.dispatch(ev.p)
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.now
}

// Reset wipes the engine for reuse: time, sequence numbers, the
// processed count and any pending events are cleared while the
// calendar's capacity (and the dispatch handler) are kept, so a pooled
// simulator pays no per-run calendar allocations.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.Processed = 0
	e.events = e.events[:0]
}

// less orders the calendar by (time, priority, insertion sequence).
func (e *Engine) less(i, j int) bool {
	a, b := &e.events[i], &e.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// pop removes the calendar minimum (the caller has already read it from
// e.events[0]).
func (e *Engine) pop() {
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && e.less(r, l) {
			child = r
		}
		if !e.less(child, i) {
			break
		}
		e.events[i], e.events[child] = e.events[child], e.events[i]
		i = child
	}
}
