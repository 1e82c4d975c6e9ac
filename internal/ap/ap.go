// Package ap implements the application-process message dispatching
// architecture proposed in Section 4 of the reproduced paper: a
// priority-ordered queue (FCFS, deadline-monotonic, or
// earliest-deadline-first) placed above the PROFIBUS communication
// stack, whose own FCFS outgoing queue is limited to a single pending
// request via the local management services.
package ap

import (
	"fmt"

	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

// Policy selects the AP queue ordering.
type Policy int

// Queue ordering policies.
const (
	// FCFS orders by readiness time — the stock PROFIBUS behaviour
	// (modelled for comparison; with FCFS the AP layer adds nothing).
	FCFS Policy = iota
	// DM orders by the stream's relative deadline (fixed priority).
	DM
	// EDF orders by the request's absolute deadline (dynamic priority).
	EDF
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case DM:
		return "DM"
	case EDF:
		return "EDF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Request is one queued message request. Messages inherit period,
// deadline and release jitter from their generating task (paper
// Sec. 4.1); the queue only needs the deadline information and the
// readiness instant.
type Request struct {
	// Stream identifies the message stream within its master.
	Stream int
	// Release is the nominal release instant (deadline anchor).
	Release Ticks
	// Ready is when the request entered the queue (Release + jitter).
	Ready Ticks
	// RelDeadline is the stream's relative deadline (DM key).
	RelDeadline Ticks
	// AbsDeadline is Release + RelDeadline (EDF key).
	AbsDeadline Ticks
	seq         int64
}

// Queue is a policy-ordered request queue. The zero value is not
// usable; construct with NewQueue.
type Queue struct {
	h   reqHeap
	seq int64
}

// NewQueue creates an empty queue with the given ordering policy.
func NewQueue(policy Policy) *Queue {
	return &Queue{h: reqHeap{policy: policy}}
}

// Reset empties the queue and re-arms it with the given policy while
// keeping the backing array, so a pooled simulator reuses it across
// runs without allocating.
func (q *Queue) Reset(policy Policy) {
	q.h.policy = policy
	q.h.items = q.h.items[:0]
	q.seq = 0
}

// Push enqueues a request. Ties on the ordering key are FIFO.
func (q *Queue) Push(r Request) {
	r.seq = q.seq
	q.seq++
	q.h.push(r)
}

// Pop removes and returns the frontmost request.
func (q *Queue) Pop() (Request, bool) {
	if len(q.h.items) == 0 {
		return Request{}, false
	}
	return q.h.pop(), true
}

// reqHeap is a hand-rolled binary min-heap of Request values. The
// simulator pushes one request per message release, so the interface
// boxing container/heap would impose (one allocation per Push and Pop)
// is measurable; hand-rolling keeps the queue allocation-free once the
// backing array has grown.
type reqHeap struct {
	policy Policy
	items  []Request
}

func (h *reqHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	var ka, kb Ticks
	switch h.policy {
	case DM:
		ka, kb = a.RelDeadline, b.RelDeadline
	case EDF:
		ka, kb = a.AbsDeadline, b.AbsDeadline
	default: // FCFS
		ka, kb = a.Ready, b.Ready
	}
	if ka != kb {
		return ka < kb
	}
	return a.seq < b.seq
}

func (h *reqHeap) push(r Request) {
	h.items = append(h.items, r)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *reqHeap) pop() Request {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && h.less(r, l) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
	return top
}

// StackSlot models the communication-stack outgoing queue limited to
// one pending request (the paper's architecture): once a request is
// committed to the slot it cannot be overtaken, which is the source of
// the single-blocking term in Eqs. 16–18.
type StackSlot struct {
	req    Request
	filled bool
}

// Filled reports whether the slot holds a pending request.
func (s *StackSlot) Filled() bool { return s.filled }

// Fill commits a request to the slot. It panics if already filled —
// the management services guarantee at most one pending request.
func (s *StackSlot) Fill(r Request) {
	if s.filled {
		panic("ap: stack slot already filled")
	}
	s.req, s.filled = r, true
}

// Take removes and returns the pending request.
func (s *StackSlot) Take() (Request, bool) {
	if !s.filled {
		return Request{}, false
	}
	s.filled = false
	return s.req, true
}

// Refill moves the frontmost AP-queue request into the slot when the
// slot is free, returning whether a transfer happened. Call it whenever
// the slot may have been freed (cycle completion) or the queue may have
// gained a better candidate while the slot was empty (request release).
func (s *StackSlot) Refill(q *Queue) bool {
	if s.filled {
		return false
	}
	r, ok := q.Pop()
	if !ok {
		return false
	}
	s.Fill(r)
	return true
}
