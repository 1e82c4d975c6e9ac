// Package holistic composes the paper's Sections 2 and 4 into the
// end-to-end analysis its Sec. 4.1–4.2 describe in prose: application
// tasks on each master's host processor generate message requests;
// messages inherit period, priority and release jitter from their
// sending task; when the response returns, a delivery task processes it
// on the same host.
//
// The quantities are mutually coupled: the message's release jitter is
// the generation task's worst-case response time; the delivery task's
// release jitter is the generation response plus the message response;
// and the delivery tasks interfere with the generation tasks on the
// shared host. As in Tindell & Clark's holistic analysis [33], the
// composition is solved as a fixed point: every response time is
// non-decreasing in every jitter, so iterating from zero jitter
// converges (saturating at timeunit.MaxTicks for divergent parts).
package holistic

import (
	"errors"
	"fmt"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/sched"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

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
	// MaxIterations caps the holistic fixed point (default 64).
	MaxIterations int
	// Cache memoizes the message-level DM/EDF fixed points on a shared
	// content-addressed table (nil disables). The holistic iteration
	// recomputes each master's bus analysis once per round with the
	// current jitters; rounds whose jitters settled — and repeated
	// analyses of identical configurations across a sweep — hit the
	// cache. Results are byte-identical with or without it.
	Cache *memo.Cache
}

// TransactionReport is the per-transaction outcome.
type TransactionReport struct {
	Master string
	Name   string
	// Breakdown is the converged end-to-end decomposition
	// (E = g + Q + C + d).
	Breakdown core.EndToEnd
	// MessageResponse is the converged message-level bound (Q + C).
	MessageResponse Ticks
	// Deadline echoes the transaction deadline.
	Deadline Ticks
	// OK reports Breakdown.Total() <= Deadline.
	OK bool
}

// Result is the analysis outcome.
type Result struct {
	// Converged is false when the fixed point hit MaxIterations.
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
	genResp []Ticks // R of the generation task (includes its jitter)
	msgResp []Ticks // R of the message (Q + C, anchored at queueing)
	delResp []Ticks // R of the delivery task (includes its jitter) = E
	delJit  []Ticks // delivery release jitter = genResp + msgResp

	host    sched.TaskSet // interleaved gen/del host tasks (2n)
	ordered sched.TaskSet // host in DM order
	rank    []int         // DM permutation buffer: position → host index
	rs      []Ticks       // ResponseTimesFPInto output buffer
	streams []core.Stream // bus-analysis stream view
	msg     []Ticks       // FCFS message-bound buffer
}

// Analyze runs the holistic fixed point. With a cache configured, the
// whole Result is additionally memoized on the full configuration
// encoding (names included — they appear verbatim in the reports), so
// sweeps that re-analyse identical configurations across cells, trials
// or policies skip the fixed point entirely. Hits return a deep copy;
// cached and uncached results are byte-identical.
func Analyze(cfg Config) (Result, error) {
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 64
	}
	if cfg.Cache == nil {
		return analyze(cfg, maxIter), nil
	}
	e := memo.GetEnc()
	defer memo.PutEnc(e)
	encodeConfig(e, cfg, maxIter)
	if v, tok, ok := cfg.Cache.LookupEncoded(memo.KindHolistic, e); ok {
		return v.(Result).clone(), nil
	} else {
		res := analyze(cfg, maxIter)
		cfg.Cache.StoreEncoded(tok, e, res.clone())
		return res, nil
	}
}

// encodeConfig writes the full analysed configuration in a fixed
// traversal order: every field that can influence the Result,
// including names (they surface in the per-transaction reports) and
// the effective iteration cap.
func encodeConfig(e *memo.Enc, cfg Config, maxIter int) {
	e.Ticks(cfg.TTR)
	e.Ticks(cfg.TokenPass)
	e.Int(maxIter)
	e.Int(len(cfg.Masters))
	for _, m := range cfg.Masters {
		e.String(m.Name)
		e.Ticks(m.LongestLow)
		e.Int(int(m.Dispatcher))
		e.Int(len(m.Transactions))
		for _, tr := range m.Transactions {
			e.String(tr.Name)
			g := tr.Generation
			e.String(g.Name)
			e.Ticks(g.C)
			e.Ticks(g.D)
			e.Ticks(g.T)
			e.Ticks(g.J)
			e.Ticks(g.B)
			s := tr.Stream
			e.String(s.Name)
			e.Ticks(s.Ch)
			e.Ticks(s.D)
			e.Ticks(s.T)
			e.Ticks(s.J)
			e.Ticks(tr.Delivery)
			e.Ticks(tr.Deadline)
		}
	}
}

// clone deep-copies the result so cached values are never aliased by
// callers (TransactionReport itself is all values).
func (r Result) clone() Result {
	r.Transactions = append([]TransactionReport(nil), r.Transactions...)
	return r
}

// analyze is the fixed point proper, on a validated configuration.
func analyze(cfg Config, maxIter int) Result {
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
	for iterations < maxIter {
		iterations++
		changed := false
		for k := range cfg.Masters {
			if stepMaster(&cfg.Masters[k], &states[k], tc, cfg.Cache) {
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
	return res
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
	for x, tr := range m.Transactions {
		s := tr.Stream
		s.T = tr.Generation.T
		s.J = capJitter(st.genResp[x], s.T)
		streams[x] = s
	}
	var msg []Ticks
	switch m.Dispatcher {
	case ap.DM:
		msg = memo.DMResponseTimes(cache, streams, tc, core.DMOptions{
			BlockingFromLowPriority: m.LongestLow > 0,
		})
	case ap.EDF:
		msg = memo.EDFResponseTimes(cache, streams, tc, core.EDFOptions{
			BlockingFromLowPriority: m.LongestLow > 0,
		})
	default: // FCFS, Eq. 11: nh·T_cycle regardless of jitter
		if cap(st.msg) < n {
			st.msg = make([]Ticks, n)
		}
		msg = st.msg[:n]
		for x := range streams {
			msg[x] = timeunit.MulSat(Ticks(n), tc)
		}
	}
	for x := range m.Transactions {
		if msg[x] != st.msgResp[x] {
			changed = true
		}
		st.msgResp[x] = msg[x]
		j := timeunit.AddSat(st.genResp[x], st.msgResp[x])
		j = capJitter(j, m.Transactions[x].Generation.T)
		if j != st.delJit[x] {
			changed = true
		}
		st.delJit[x] = j
	}
	return changed
}

// capJitter keeps a divergent (MaxTicks) response from poisoning the
// jitter terms with overflow while still signalling hopelessness: a
// jitter of one full period already makes back-to-back interference
// maximal for the analyses in use, and the MaxTicks response itself
// marks the transaction infeasible.
func capJitter(j, period Ticks) Ticks {
	if j > period {
		return period
	}
	return j
}

// compose assembles the end-to-end decomposition for transaction x.
// The delivery response already includes its release jitter
// (gen + message), so E = R_delivery; the breakdown recovers the
// paper's g, Q, C, d shares.
func compose(tr Transaction, st state, x int) (core.EndToEnd, bool) {
	g, r, del := st.genResp[x], st.msgResp[x], st.delResp[x]
	if g == timeunit.MaxTicks || r == timeunit.MaxTicks || del == timeunit.MaxTicks {
		return core.EndToEnd{
			Generation: g, Queuing: timeunit.MaxTicks,
			Cycle: tr.Stream.Ch, Delivery: tr.Delivery,
		}, false
	}
	d := del - st.delJit[x]
	if d < tr.Delivery {
		d = tr.Delivery
	}
	e := core.EndToEnd{
		Generation: g,
		Queuing:    timeunit.Max(0, r-tr.Stream.Ch),
		Cycle:      tr.Stream.Ch,
		Delivery:   d,
	}
	return e, e.Total() <= tr.Deadline
}
