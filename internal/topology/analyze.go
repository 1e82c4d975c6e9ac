package topology

import (
	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/timeunit"
)

// Options tunes the topology analysis.
type Options struct {
	// DM tunes the Eq. 16 analysis on DM segments.
	DM core.DMOptions
	// EDF tunes the Eqs. 17–18 analysis on EDF segments.
	EDF core.EDFOptions
	// MaxIterations caps the cross-segment jitter fixed point
	// (default 64; the fixed point needs chain depth + 1 iterations on
	// any valid — acyclic — relay graph).
	MaxIterations int
	// Cache memoizes the per-master DM/EDF response-time vectors on a
	// shared content-addressed table (nil disables). Inside one Analyze
	// the jitter fixed point re-evaluates every segment each iteration
	// even when only a few inherited jitters moved, so unchanged
	// masters hit the cache; across a batch, topologies sharing segment
	// configurations share entries. Results are byte-identical with or
	// without it.
	Cache *memo.Cache
}

// SegmentReport is one segment's analytic outcome.
type SegmentReport struct {
	// Name echoes the segment name.
	Name string
	// Policy echoes the segment dispatcher.
	Policy ap.Policy
	// TokenCycle is the segment's Eq. 14 bound.
	TokenCycle Ticks
	// Schedulable reports whether every high-priority stream meets
	// R <= D. Relay-target streams carry origin-anchored bounds, so
	// their deadlines are origin-anchored budgets too.
	Schedulable bool
	// Verdicts holds the per-stream bounds in master order then stream
	// order, with the bridge-inherited T and J applied.
	Verdicts []core.StreamVerdict
}

// RelayReport is one relay's end-to-end outcome.
type RelayReport struct {
	// Bridge and Name identify the relay.
	Bridge string
	Name   string
	// From and To are the resolved endpoints.
	From, To Endpoint
	// FromResponse is the source stream's response bound, anchored at
	// the nominal release of the chain's origin stream.
	FromResponse Ticks
	// Latency echoes the bridge latency.
	Latency Ticks
	// EndToEnd is the target stream's response bound with inherited
	// jitter — the origin-release-to-destination-completion bound
	// (FromResponse + Latency enter it as the target's release jitter).
	EndToEnd Ticks
	// Deadline echoes the relay deadline.
	Deadline Ticks
	// OK reports EndToEnd <= Deadline.
	OK bool
}

// Endpoint is the exported form of a resolved relay endpoint.
type Endpoint struct {
	// Segment and Stream name the endpoint.
	Segment, Stream string
}

// Result is the topology analysis outcome.
type Result struct {
	// Converged is false when the jitter fixed point hit MaxIterations.
	Converged bool
	// Iterations used by the fixed point.
	Iterations int
	// Schedulable is true when the fixed point converged, every segment
	// is schedulable under its policy, and every relay meets its
	// end-to-end deadline.
	Schedulable bool
	// Segments in input order.
	Segments []SegmentReport
	// Relays in bridge order then relay order.
	Relays []RelayReport
}

// jitterCap bounds inherited release jitter fed back into the
// per-segment analyses. It equals the analyses' default iteration
// horizon, so a capped jitter deterministically drives the affected
// fixed points to MaxTicks (divergence propagates) while the arithmetic
// inside them stays far from Ticks overflow.
const jitterCap = Ticks(1) << 40

// analyzeIndex maps relay endpoints to locations in the analytic view
// (stream indexes point into each master's High list).
func analyzeIndex(t Topology) map[streamKey]loc {
	idx := map[streamKey]loc{}
	for si, s := range t.Segments {
		for mi, m := range s.Net.Masters {
			for hi, hs := range m.High {
				idx[streamKey{seg: s.Name, stream: hs.Name}] = loc{seg: si, master: mi, stream: hi}
			}
		}
	}
	return idx
}

// Analyze composes the per-segment schedulability analyses across the
// bridges. Relay-target streams inherit their source stream's period
// and a release jitter of (source response bound + bridge latency); the
// inherited jitters are solved as a fixed point, which needs chain
// depth + 1 iterations on the (validated acyclic) relay graph. The
// target's jitter-inclusive response bound is then the origin-anchored
// end-to-end bound reported per relay.
func Analyze(t Topology, opts Options) (Result, error) {
	if err := t.Validate(); err != nil {
		return Result{}, err
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 64
	}
	if opts.Cache == nil {
		return analyze(t, opts, maxIter), nil
	}
	// Whole-result memoization on the full topology + options encoding
	// (names included — they appear verbatim in the reports): sweeps
	// re-analysing identical topologies skip the fixed point entirely.
	// Hits return a deep copy; results are byte-identical either way.
	e := memo.GetEnc()
	defer memo.PutEnc(e)
	encodeTopology(e, t, opts, maxIter)
	if v, tok, ok := opts.Cache.LookupEncoded(memo.KindTopology, e); ok {
		return v.(Result).clone(), nil
	} else {
		res := analyze(t, opts, maxIter)
		opts.Cache.StoreEncoded(tok, e, res.clone())
		return res, nil
	}
}

// encodeTopology writes every input that can influence the Result in a
// fixed traversal order.
func encodeTopology(e *memo.Enc, t Topology, opts Options, maxIter int) {
	e.Int(maxIter)
	e.Bool(opts.DM.Literal)
	e.Bool(opts.DM.BlockingFromLowPriority)
	e.Ticks(opts.DM.Horizon)
	e.Bool(opts.EDF.BlockingFromLowPriority)
	e.Ticks(opts.EDF.Horizon)
	e.Int(len(t.Segments))
	for _, s := range t.Segments {
		e.String(s.Name)
		e.Int(int(s.Dispatcher))
		e.Ticks(s.Net.TTR)
		e.Ticks(s.Net.TokenPass)
		e.Ticks(s.Net.GapPoll)
		e.Int(len(s.Net.Masters))
		for _, m := range s.Net.Masters {
			e.String(m.Name)
			e.Ticks(m.LongestLow)
			e.Int(len(m.High))
			for _, hs := range m.High {
				e.String(hs.Name)
				e.Ticks(hs.Ch)
				e.Ticks(hs.D)
				e.Ticks(hs.T)
				e.Ticks(hs.J)
			}
		}
	}
	e.Int(len(t.Bridges))
	for _, b := range t.Bridges {
		e.String(b.Name)
		e.String(b.From)
		e.String(b.To)
		e.Ticks(b.Latency)
		e.Int(len(b.Relays))
		for _, r := range b.Relays {
			e.String(r.Name)
			e.String(r.FromStream)
			e.String(r.ToStream)
			e.Ticks(r.Deadline)
		}
	}
}

// clone deep-copies the result so cached values are never aliased by
// callers (verdict and relay entries are all values).
func (r Result) clone() Result {
	if r.Segments != nil {
		segs := make([]SegmentReport, len(r.Segments))
		for i, s := range r.Segments {
			s.Verdicts = append([]core.StreamVerdict(nil), s.Verdicts...)
			segs[i] = s
		}
		r.Segments = segs
	}
	r.Relays = append([]RelayReport(nil), r.Relays...)
	return r
}

// analyze is the jitter fixed point proper, on a validated topology.
func analyze(t Topology, opts Options, maxIter int) Result {
	relays := resolveRelays(t.Bridges, analyzeIndex(t))

	// Working copies of every segment's high streams, so T and J
	// overrides never touch the caller's topology.
	streams := make([][][]core.Stream, len(t.Segments))
	for si, s := range t.Segments {
		streams[si] = make([][]core.Stream, len(s.Net.Masters))
		for mi, m := range s.Net.Masters {
			streams[si][mi] = append([]core.Stream(nil), m.High...)
		}
	}

	// Period inheritance: the relay graph is a DAG, so repeatedly
	// propagating source periods settles within len(relays) passes.
	for range relays {
		for _, r := range relays {
			streams[r.to.seg][r.to.master][r.to.stream].T =
				streams[r.from.seg][r.from.master][r.from.stream].T
		}
	}
	// Relay targets start the jitter fixed point from zero inherited
	// jitter; their configured J is owned by the bridge composition.
	for _, r := range relays {
		streams[r.to.seg][r.to.master][r.to.stream].J = 0
	}

	// responses mirrors the streams layout.
	responses := make([][][]Ticks, len(t.Segments))
	tcs := make([]Ticks, len(t.Segments))
	evaluate := func() {
		for si, s := range t.Segments {
			net := s.Net
			net.Masters = append([]core.Master(nil), s.Net.Masters...)
			for mi := range net.Masters {
				net.Masters[mi].High = streams[si][mi]
			}
			tc := net.TokenCycle()
			tcs[si] = tc
			responses[si] = make([][]Ticks, len(net.Masters))
			for mi, m := range net.Masters {
				responses[si][mi] = segmentResponses(m, s.Dispatcher, tc, opts)
			}
		}
	}

	iterations := 0
	converged := false
	for iterations < maxIter {
		iterations++
		evaluate()
		changed := false
		for _, r := range relays {
			j := timeunit.AddSat(responses[r.from.seg][r.from.master][r.from.stream], r.latency)
			if j > jitterCap {
				j = jitterCap
			}
			tgt := &streams[r.to.seg][r.to.master][r.to.stream]
			if tgt.J != j {
				tgt.J = j
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		// The loop exited with jitters updated after the last
		// evaluation; re-evaluate once so the reported (still
		// non-converged, monotonically growing) values at least match
		// the final jitter state.
		evaluate()
	}

	res := Result{Converged: converged, Iterations: iterations, Schedulable: converged}
	for si, s := range t.Segments {
		rep := SegmentReport{Name: s.Name, Policy: s.Dispatcher, TokenCycle: tcs[si], Schedulable: true}
		for mi, m := range s.Net.Masters {
			for hi := range m.High {
				st := streams[si][mi][hi]
				r := responses[si][mi][hi]
				v := core.StreamVerdict{Master: m.Name, Stream: st.Name, D: st.D, R: r, OK: r <= st.D}
				if !v.OK {
					rep.Schedulable = false
				}
				rep.Verdicts = append(rep.Verdicts, v)
			}
		}
		if !rep.Schedulable {
			res.Schedulable = false
		}
		res.Segments = append(res.Segments, rep)
	}
	for _, r := range relays {
		e2e := responses[r.to.seg][r.to.master][r.to.stream]
		rr := RelayReport{
			Bridge:       r.bridge,
			Name:         r.relay.Name,
			From:         Endpoint{Segment: t.Segments[r.from.seg].Name, Stream: r.relay.FromStream},
			To:           Endpoint{Segment: t.Segments[r.to.seg].Name, Stream: r.relay.ToStream},
			FromResponse: responses[r.from.seg][r.from.master][r.from.stream],
			Latency:      r.latency,
			EndToEnd:     e2e,
			Deadline:     r.relay.Deadline,
			OK:           e2e <= r.relay.Deadline,
		}
		if !rr.OK {
			res.Schedulable = false
		}
		res.Relays = append(res.Relays, rr)
	}
	return res
}

// segmentResponses evaluates one master's high-priority response bounds
// under the segment's dispatcher. All bounds are anchored at the
// nominal release including the stream's release jitter: DM and EDF do
// this natively; the FCFS Eq. 11 bound nh·T_cycle covers queuing from
// readiness, so the jitter is added on top.
func segmentResponses(m core.Master, pol ap.Policy, tc Ticks, opts Options) []Ticks {
	switch pol {
	case ap.DM:
		o := opts.DM
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return memo.DMResponseTimes(opts.Cache, m.High, tc, o)
	case ap.EDF:
		o := opts.EDF
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return memo.EDFResponseTimes(opts.Cache, m.High, tc, o)
	default:
		base := core.FCFSResponseTime(m, tc)
		out := make([]Ticks, len(m.High))
		for i, s := range m.High {
			out[i] = timeunit.AddSat(s.J, base)
		}
		return out
	}
}
