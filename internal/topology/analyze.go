package topology

import (
	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/profibus"
	"profirt/internal/timeunit"
)

// Options tunes the topology analysis.
type Options struct {
	// MaxIterations caps the cross-segment jitter fixed point
	// (default 64). The sweeps settle in chain depth + 1 iterations
	// when no bridge chain returns to a ring it left; when one does,
	// the relayed jitter moves the bounds of that ring's other streams,
	// so it can take longer. A run that hits the cap reads Converged
	// false.
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
	// Policy is the segment's analysis policy, its first master's
	// Dispatcher.
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

// Analyze composes the per-segment schedulability analyses across the
// bridges. Each segment's model is profibus.Network of its
// configuration, analysed under its first master's Dispatcher. Every
// segment bound is memo.MasterBounds: origin-anchored,
// it includes the stream's release jitter. Relay-target streams inherit
// their source stream's period and a release jitter of (source response
// bound + bridge latency, capped at core.JitterCap); the inherited
// jitters are solved as a fixed point in Jacobi sweeps (every segment
// evaluated, then every relay updated) over the validated acyclic relay
// graph, and the target's bound is then the origin-anchored end-to-end
// bound reported per relay. The sweeps settle in chain depth + 1
// iterations when no bridge chain returns to a ring it left; when one
// does, the relayed jitter moves the bounds of that ring's other
// streams, so it can take longer. A run that hits opts.MaxIterations
// reads Converged false. opts.Cache memoizes the DM and EDF segment
// bounds of every sweep; cached and uncached results are
// byte-identical.
func Analyze(t Topology, opts Options) (Result, error) {
	if err := t.Validate(); err != nil {
		return Result{}, err
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 64
	}

	relays := resolveRelays(t)

	// Each segment's model, derived afresh so that the bridges' T and J
	// overrides below touch no caller state, and its policy.
	nets := make([]core.Network, len(t.Segments))
	policies := make([]ap.Policy, len(t.Segments))
	for si, s := range t.Segments {
		nets[si] = profibus.Network(s.Cfg)
		policies[si] = s.Cfg.Masters[0].Dispatcher
	}
	stream := func(l loc) *core.Stream { return &nets[l.seg].Masters[l.master].High[l.high] }

	// Period inheritance: the relay graph is a DAG, so repeatedly
	// propagating source periods settles within len(relays) passes.
	for range relays {
		for _, r := range relays {
			stream(r.to).T = stream(r.from).T
		}
	}
	// Relay targets start the jitter fixed point from zero inherited
	// jitter; their configured J is owned by the bridge composition.
	for _, r := range relays {
		stream(r.to).J = 0
	}

	// responses[seg][master][high] is the stream's bound.
	responses := make([][][]Ticks, len(t.Segments))
	tcs := make([]Ticks, len(t.Segments))
	evaluate := func() {
		for si, net := range nets {
			tc := net.TokenCycle()
			tcs[si] = tc
			responses[si] = make([][]Ticks, len(net.Masters))
			for mi, m := range net.Masters {
				responses[si][mi] = memo.MasterBounds(nil, opts.Cache, policies[si], m, tc)
			}
		}
	}
	response := func(l loc) Ticks { return responses[l.seg][l.master][l.high] }

	iterations := 0
	converged := false
	for iterations < maxIter {
		iterations++
		evaluate()
		changed := false
		for _, r := range relays {
			j := min(timeunit.AddSat(response(r.from), r.latency), core.JitterCap)
			tgt := stream(r.to)
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
		rep := SegmentReport{Name: s.Name, Policy: policies[si], TokenCycle: tcs[si], Schedulable: true}
		for mi, m := range nets[si].Masters {
			for hi, st := range m.High {
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
		e2e := response(r.to)
		rr := RelayReport{
			Bridge:       r.bridge,
			Name:         r.relay.Name,
			From:         Endpoint{Segment: t.Segments[r.from.seg].Name, Stream: r.relay.FromStream},
			To:           Endpoint{Segment: t.Segments[r.to.seg].Name, Stream: r.relay.ToStream},
			FromResponse: response(r.from),
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
	return res, nil
}
