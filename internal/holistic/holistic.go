// Package holistic composes the paper's Sections 2 and 4 into the
// end-to-end analysis its Sec. 4.1–4.2 describe in prose: application
// tasks on each master's host processor generate message requests;
// messages inherit period, priority and release jitter from their
// sending task; when the response returns, a delivery task processes it
// on the same host.
//
// Every bound in the chain is origin-anchored: it is measured from the
// nominal release of the transaction and includes the release jitter
// the stage inherits. The quantities are mutually coupled: the
// message's release jitter is the generation task's worst-case response
// time g, so the message bound (memo.MasterBounds) covers g + Q + C;
// the delivery task's release jitter is that message bound; and the
// delivery tasks interfere with the generation tasks on the shared
// host. As in Tindell & Clark's holistic analysis [33], the
// composition is solved as a fixed point, master by master: every
// response time is non-decreasing in every jitter, so iterating from
// zero jitter converges (saturating at timeunit.MaxTicks for divergent
// parts, with inherited jitter capped at core.JitterCap; under EDF a
// divergent generation response makes every message bound of its
// master diverge).
package holistic

import (
	"errors"
	"fmt"
	"slices"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/sched"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

// maxIterations caps the holistic fixed point; a configuration that
// has not settled within it is reported with Converged false.
const maxIterations = 64

// Transaction is one sensor-to-actuator control transaction on a
// master: a generation task that produces the message request, the
// message stream itself, and a delivery task processing the response
// (the paper's g, Q+C, and d).
type Transaction struct {
	// Name labels the transaction.
	Name string
	// Generation is the task releasing the request; its period is the
	// transaction period and its worst-case response time becomes the
	// message's release jitter (Sec. 4.1).
	Generation sched.Task
	// Stream is the message carried on the bus. T and J are derived
	// (T from Generation.T, J from the fixed point); Ch and D must be
	// set.
	Stream core.Stream
	// Delivery is the host execution cost of processing the response.
	Delivery Ticks
	// Deadline is the end-to-end deadline the transaction must meet.
	Deadline Ticks
}

// MasterSpec is one master: its host-processor task set consists of the
// generation and delivery parts of its transactions (scheduled
// preemptively, deadline-monotonic), and its bus traffic of their
// streams.
type MasterSpec struct {
	Name string
	// Transactions in any order.
	Transactions []Transaction
	// LongestLow is the master's longest low-priority message cycle
	// (contributes blocking and C_M, as in core.Master).
	LongestLow Ticks
	// Dispatcher selects the AP queue policy used for the message
	// analysis: ap.DM or ap.EDF (ap.FCFS uses the Eq. 11 bound).
	Dispatcher ap.Policy
}

// Config is the analysed system.
type Config struct {
	TTR Ticks
	// TokenPass is the per-hop token passing overhead (bit times).
	TokenPass Ticks
	Masters   []MasterSpec
}

// TransactionReport is the per-transaction outcome.
type TransactionReport struct {
	Master string
	Name   string
	// Breakdown is the converged end-to-end decomposition
	// (E = g + Q + C + d).
	Breakdown core.EndToEnd
	// MessageResponse is the converged message-level bound, anchored
	// at the transaction's nominal release: it includes the generation
	// response as release jitter, so it covers g + Q + C.
	MessageResponse Ticks
	// Deadline echoes the transaction deadline.
	Deadline Ticks
	// OK reports Breakdown.Total() <= Deadline.
	OK bool
}

// Result is the analysis outcome.
type Result struct {
	// Converged is false when the fixed point hit maxIterations.
	Converged bool
	// Iterations used by the fixed point.
	Iterations int
	// Schedulable is true when the fixed point converged and every
	// transaction meets its end-to-end deadline.
	Schedulable bool
	// Transactions in master order then input order.
	Transactions []TransactionReport
	// TokenCycle is the Eq. 14 bound used for the message analyses.
	TokenCycle Ticks
}

// state carries the per-transaction fixed-point variables of one
// master, plus the scratch buffers stepMaster reuses every round (the
// fixed point re-runs the host and bus analyses once per master per
// round, so per-round allocations multiply).
type state struct {
	genResp []Ticks // R of the generation task (includes its jitter) = g
	msgResp []Ticks // R of the message (includes J = g) = g + Q + C
	delResp []Ticks // R of the delivery task (includes its jitter) = E
	delJit  []Ticks // delivery release jitter = msgResp, capped

	host    sched.TaskSet // interleaved gen/del host tasks (2n)
	ordered sched.TaskSet // host in DM order
	rank    []int         // DM permutation buffer: position → host index
	rs      []Ticks       // ResponseTimesFPInto output buffer
	streams []core.Stream // bus-analysis stream view
	msg     []Ticks       // message-bound buffer (FCFS and divergent EDF)
}

// Analyze runs the holistic fixed point. Every round asks
// memo.MasterBounds for each master's message bounds, which cache
// memoizes under DM and EDF (nil disables): rounds whose jitters
// settled, and repeated analyses of identical masters across a sweep,
// hit it. Cached and uncached results are byte-identical.
func Analyze(cfg Config, cache *memo.Cache) (Result, error) {
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	// T_cycle does not depend on jitter; compute once.
	net := core.Network{TTR: cfg.TTR, TokenPass: cfg.TokenPass}
	for _, m := range cfg.Masters {
		cm := core.Master{Name: m.Name, LongestLow: m.LongestLow}
		for _, tr := range m.Transactions {
			s := tr.Stream
			s.T = tr.Generation.T
			cm.High = append(cm.High, s)
		}
		net.Masters = append(net.Masters, cm)
	}
	tc := net.TokenCycle()

	states := make([]state, len(cfg.Masters))
	for k, m := range cfg.Masters {
		n := len(m.Transactions)
		states[k] = state{
			genResp: make([]Ticks, n), msgResp: make([]Ticks, n),
			delResp: make([]Ticks, n), delJit: make([]Ticks, n),
		}
	}

	iterations := 0
	converged := false
	for iterations < maxIterations {
		iterations++
		changed := false
		for k := range cfg.Masters {
			if stepMaster(&cfg.Masters[k], &states[k], tc, cache) {
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}

	res := Result{
		Converged:   converged,
		Iterations:  iterations,
		Schedulable: converged,
		TokenCycle:  tc,
	}
	for k, m := range cfg.Masters {
		st := states[k]
		for x, tr := range m.Transactions {
			e, ok := compose(tr, st, x)
			if !ok {
				res.Schedulable = false
			}
			res.Transactions = append(res.Transactions, TransactionReport{
				Master:          m.Name,
				Name:            tr.Name,
				Breakdown:       e,
				MessageResponse: st.msgResp[x],
				Deadline:        tr.Deadline,
				OK:              ok,
			})
		}
	}
	return res, nil
}

func validate(cfg Config) error {
	if len(cfg.Masters) == 0 {
		return errors.New("holistic: no masters")
	}
	if cfg.TTR <= 0 {
		return errors.New("holistic: TTR must be positive")
	}
	if cfg.TokenPass < 0 {
		return errors.New("holistic: TokenPass must be non-negative")
	}
	for _, m := range cfg.Masters {
		if len(m.Transactions) == 0 {
			return fmt.Errorf("holistic: master %q has no transactions", m.Name)
		}
		for _, tr := range m.Transactions {
			if err := tr.Generation.Validate(); err != nil {
				return fmt.Errorf("holistic: %q: %w", tr.Name, err)
			}
			if tr.Stream.Ch <= 0 || tr.Stream.D <= 0 {
				return fmt.Errorf("holistic: %q: stream needs positive Ch and D", tr.Name)
			}
			if tr.Delivery < 0 || tr.Deadline <= 0 {
				return fmt.Errorf("holistic: %q: bad delivery/deadline", tr.Name)
			}
		}
	}
	return nil
}

// stepMaster performs one holistic round on a master and reports
// whether any quantity changed.
func stepMaster(m *MasterSpec, st *state, tc Ticks, cache *memo.Cache) bool {
	n := len(m.Transactions)

	// Host analysis: generation and delivery tasks under preemptive DM.
	// The host set interleaves gen task x at index 2x and delivery task
	// x at 2x+1 before sorting, and the position mapping (instead of
	// per-round formatted names and a lookup map) recovers each task's
	// response from the DM-ordered result.
	host := st.host[:0]
	for x, tr := range m.Transactions {
		host = append(host, tr.Generation)
		host = append(host, sched.Task{
			C: timeunit.Max(tr.Delivery, 1),
			D: tr.Deadline,
			T: tr.Generation.T,
			J: st.delJit[x],
		})
	}
	st.host = host
	// Stable insertion sort by deadline into the rank mapping: starting
	// from the identity permutation with strict-less comparisons
	// reproduces sched.SortDM's sort.SliceStable order exactly.
	if cap(st.rank) < 2*n {
		st.rank = make([]int, 2*n)
	}
	perm := st.rank[:2*n]
	for h := range perm {
		perm[h] = h
	}
	for a := 1; a < 2*n; a++ {
		b := a
		for b > 0 && host[perm[b]].D < host[perm[b-1]].D {
			perm[b], perm[b-1] = perm[b-1], perm[b]
			b--
		}
	}
	ordered := st.ordered[:0]
	for _, h := range perm {
		ordered = append(ordered, host[h])
	}
	st.ordered = ordered
	st.rs = sched.ResponseTimesFPInto(st.rs, ordered, sched.FPOptions{Preemptive: true})

	// Recover per-host-task responses: one linear pass over perm fills
	// both gen and del responses without a map (host task 2x is
	// transaction x's generation, 2x+1 its delivery).
	changed := false
	for k, h := range perm {
		r := st.rs[k]
		x := h / 2
		if h%2 == 0 {
			if r != st.genResp[x] {
				changed = true
			}
			st.genResp[x] = r
		} else {
			if r != st.delResp[x] {
				changed = true
			}
			st.delResp[x] = r
		}
	}

	// Bus analysis with jitter inherited from the generation responses.
	if cap(st.streams) < n {
		st.streams = make([]core.Stream, n)
	}
	streams := st.streams[:n]
	diverged := false
	for x, tr := range m.Transactions {
		s := tr.Stream
		s.T = tr.Generation.T
		s.J = min(st.genResp[x], core.JitterCap)
		streams[x] = s
		diverged = diverged || st.genResp[x] == timeunit.MaxTicks
	}
	var msg []Ticks
	if diverged && m.Dispatcher == ap.EDF {
		// A divergent generation response is an unbounded release
		// jitter. Under EDF that stream's backlog carries deadlines
		// before any finite instant, so every bound on the master
		// diverges; the kernel, run on the capped jitter, would only
		// approach that limit by enumerating offsets over a busy period
		// of order JitterCap·T_cycle/T.
		msg = slices.Grow(st.msg[:0], n)[:n]
		for x := range msg {
			msg[x] = timeunit.MaxTicks
		}
	} else {
		msg = memo.MasterBounds(st.msg, cache, m.Dispatcher, core.Master{High: streams, LongestLow: m.LongestLow}, tc)
	}
	st.msg = msg
	for x := range m.Transactions {
		if msg[x] != st.msgResp[x] {
			changed = true
		}
		st.msgResp[x] = msg[x]
		j := min(msg[x], core.JitterCap)
		if j != st.delJit[x] {
			changed = true
		}
		st.delJit[x] = j
	}
	return changed
}

// compose assembles the end-to-end decomposition for transaction x.
// The delivery response already includes its release jitter (the
// message bound, which includes g), so E = R_delivery; core.Compose
// recovers the paper's g, Q and C from the message bound, and d is the
// delivery response past its jitter.
func compose(tr Transaction, st state, x int) (core.EndToEnd, bool) {
	g, r, del := st.genResp[x], st.msgResp[x], st.delResp[x]
	if g == timeunit.MaxTicks || del == timeunit.MaxTicks {
		r = timeunit.MaxTicks
	}
	d := tr.Delivery
	if r != timeunit.MaxTicks {
		d = max(d, del-st.delJit[x])
	}
	e := core.Compose(g, r, tr.Stream.Ch, d)
	return e, e.Total() <= tr.Deadline
}
