package topology

import (
	"context"
	"hash/fnv"
	"io"

	"profirt/internal/obs"
	"profirt/internal/pool"
	"profirt/internal/profibus"
	"profirt/internal/timeunit"
)

// SimOptions tunes the sharded topology simulation.
type SimOptions struct {
	// Pool runs the per-round segment shards, so concurrent topology
	// simulations share one bounded worker set; nil runs them in
	// segment order on the caller. Results are byte-identical at any
	// pool width.
	Pool *pool.Shared
	// Context cancels the simulation at the next round barrier: the
	// bridge-exchange fixed point checks it before each round and
	// after the round's segment shards complete, so a cancelled
	// simulation returns ctx.Err() within one round instead of running
	// to convergence. nil means context.Background().
	Context context.Context
	// MaxRounds caps the bridge-exchange fixed point (default: total
	// relay count + 2). The default suffices when no bridge chain
	// returns to a ring it left: every segment's relayed releases then
	// depend only on segments upstream of it, and they settle one
	// bridge hop per round. A chain that returns to a ring it left
	// (seg0 → seg1 → seg0 over different streams) re-simulates that
	// ring with new relayed releases, which moves the completions of
	// the stream it started from, so it may not settle within the
	// default, even when no stream relays to itself; the result then
	// reports Converged false.
	MaxRounds int
	// onRound, when non-nil, is called at each round barrier after the
	// round's segment simulations complete, with the 1-based round
	// number, on the submitting goroutine. The cancellation tests use
	// it to cancel mid-fixed-point and to count the rounds that ran.
	onRound func(round int)
}

// SegmentSimResult is one segment's simulation outcome.
type SegmentSimResult struct {
	// Name echoes the segment name.
	Name string
	// Result is the segment's final-round simulation result.
	Result profibus.Result
}

// RelaySimStats aggregates one relay's observed end-to-end behaviour.
type RelaySimStats struct {
	// Bridge and Name identify the relay.
	Bridge string
	Name   string
	// Relayed counts requests released on the destination ring (source
	// completions whose relayed release fell inside the horizon).
	Relayed int64
	// Completed counts relayed requests whose destination cycle
	// finished inside the horizon.
	Completed int64
	// Pending counts relayed requests still unfinished at the horizon;
	// they contribute horizon − origin to WorstEndToEnd as a lower
	// bound.
	Pending int64
	// Failed counts relayed requests whose destination cycle was
	// abandoned after all retries; the delivery is lost, so each also
	// counts as Missed.
	Failed int64
	// Missed counts relayed requests whose destination completion (or
	// the horizon, for pending ones) exceeded origin + Deadline, plus
	// every Failed delivery.
	Missed int64
	// WorstEndToEnd is the largest observed origin-release-to-
	// destination-completion delay.
	WorstEndToEnd Ticks
	// SumEndToEnd sums the completed delays (for mean computation).
	SumEndToEnd Ticks
}

// MeanEndToEnd averages over completed relayed requests.
func (r RelaySimStats) MeanEndToEnd() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.SumEndToEnd) / float64(r.Completed)
}

// SimResult is the sharded simulation outcome.
type SimResult struct {
	// Converged reports that the bridge-exchange fixed point became
	// stable within MaxRounds.
	Converged bool
	// Rounds is the number of whole-topology simulation rounds run.
	Rounds int
	// Segments in input order, from the final round.
	Segments []SegmentSimResult
	// Relays in bridge order then relay order.
	Relays []RelaySimStats
}

// segmentSeed derives the deterministic per-segment RNG seed, mirroring
// the experiment harness's cell-seed derivation: the segment's random
// stream depends only on (Seed, segment name), never on scheduling
// order or worker count.
func segmentSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	io.WriteString(h, "segment:")
	io.WriteString(h, name)
	return seed ^ int64(h.Sum64())
}

// injection is the release list a bridge feeds into one relay-target
// stream for a round: instants sorted ascending, with the originating
// chain-origin nominal release carried alongside.
type injection struct {
	instants []Ticks
	origins  []Ticks
}

func (a injection) equal(b injection) bool {
	if len(a.instants) != len(b.instants) {
		return false
	}
	for i := range a.instants {
		if a.instants[i] != b.instants[i] || a.origins[i] != b.origins[i] {
			return false
		}
	}
	return true
}

// Simulate runs the sharded multi-segment simulation: every round, each
// segment runs as its own profibus.Simulate job on the shared worker
// pool; between rounds the bridges convert source-stream completion
// traces into explicit release lists for their target streams. The
// rounds repeat until the exchanged release lists are stable (for
// acyclic segment coupling that takes chain depth + 1 rounds). Each
// segment's RNG seed is derived from Topology.Seed and the segment
// name, and all cross-segment state is exchanged at round barriers, so
// results are byte-identical at any pool width.
func Simulate(t Topology, opts SimOptions) (SimResult, error) {
	if err := t.Validate(); err != nil {
		return SimResult{}, err
	}
	n := len(t.Segments)
	// Deep-copy every segment config: the rounds mutate Releases on
	// relay-target streams, and per-segment seeds/trace flags are
	// forced.
	cfgs := make([]profibus.Config, n)
	for i, s := range t.Segments {
		cfg := s.Cfg
		cfg.Masters = append([]profibus.MasterConfig(nil), cfg.Masters...)
		for mi := range cfg.Masters {
			cfg.Masters[mi].Streams = append([]profibus.StreamConfig(nil), cfg.Masters[mi].Streams...)
		}
		cfg.Slaves = append([]profibus.SlaveConfig(nil), cfg.Slaves...)
		cfg.Seed = segmentSeed(t.Seed, s.Name)
		cfgs[i] = cfg
	}
	horizon := cfgs[0].Horizon

	relays := resolveRelays(t)
	// Only bridge endpoints need cycle traces: sources drive the
	// relayed releases, targets provide the end-to-end completions.
	for _, r := range relays {
		cfgs[r.from.seg].Masters[r.from.master].Streams[r.from.stream].Trace = true
		cfgs[r.to.seg].Masters[r.to.master].Streams[r.to.stream].Trace = true
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		// Without a bridge chain that returns to a ring it left, a
		// chain has depth at most len(relays) and its release lists
		// stabilise one bridge hop per round; +2 covers the
		// stability-detection round with margin. A chain that returns
		// to a ring it left may not settle within this, and then
		// reads Converged false (see SimOptions.MaxRounds).
		maxRounds = len(relays) + 2
	}

	// Relay targets start with an explicit empty release list: their
	// release pattern is owned by the bridges.
	inj := make([]injection, len(relays))
	for ri, r := range relays {
		inj[ri] = injection{instants: []Ticks{}, origins: []Ticks{}}
		cfgs[r.to.seg].Masters[r.to.master].Streams[r.to.stream].Releases = inj[ri].instants
	}
	// originOf maps a stream's release instant back to its chain-origin
	// nominal release; primary (non-relayed) streams are their own
	// origin.
	originByTarget := make([]map[Ticks]Ticks, len(relays))
	targetRelay := map[loc]int{}
	for ri, r := range relays {
		targetRelay[r.to] = ri
	}
	originOf := func(l loc, release Ticks) Ticks {
		if ri, ok := targetRelay[l]; ok {
			if o, ok := originByTarget[ri][release]; ok {
				return o
			}
		}
		return release
	}

	results := make([]profibus.Result, n)
	errs := make([]error, n)
	// dirty marks segments whose injected release lists changed since
	// their last simulation; clean segments keep their previous result
	// (same config, seed and releases reproduce it byte for byte, so
	// skipping the re-run is free).
	dirty := make([]bool, n)
	for i := range dirty {
		dirty[i] = true
	}
	ctx := opts.Context
	rounds := 0
	converged := false
	for {
		// Round barrier: a context cancelled during the previous round
		// (a dead client, a hit deadline, a retuned controller) must not
		// grind through the remaining fixed-point rounds — MaxRounds of
		// them in the non-converging case.
		if ctx != nil && ctx.Err() != nil {
			return SimResult{}, ctx.Err()
		}
		rounds++
		// Publish this round's origin maps before running, so trace
		// lookups during derivation see the lists the round used.
		for ri := range relays {
			m := make(map[Ticks]Ticks, len(inj[ri].instants))
			for i, at := range inj[ri].instants {
				m[at] = inj[ri].origins[i]
			}
			originByTarget[ri] = m
		}
		// A traced simulation wraps each fixed-point round in a
		// topology.round span (arg = 1-based round number), so trace
		// exports show where the bridge exchange spent its time.
		rctx, rspan := obs.StartSpanArg(ctx, "topology.round", int64(rounds))
		opts.Pool.RunJobs(rctx, n, func(_ context.Context, i int) {
			if !dirty[i] || (ctx != nil && ctx.Err() != nil) {
				return
			}
			results[i], errs[i] = profibus.Simulate(cfgs[i])
		})
		rspan.End()
		// A cancellation mid-round leaves some segments unsimulated;
		// their result slots are stale, so bail before deriving
		// injections from them.
		if ctx != nil && ctx.Err() != nil {
			return SimResult{}, ctx.Err()
		}
		for _, err := range errs {
			if err != nil {
				return SimResult{}, err
			}
		}
		if opts.onRound != nil {
			opts.onRound(rounds)
		}
		// Derive next-round injections from the source traces. Failed
		// source cycles delivered nothing, so the bridge forwards
		// nothing for them.
		next := make([]injection, len(relays))
		for ri, r := range relays {
			trace := results[r.from.seg].PerMaster[r.from.master].PerStream[r.from.stream].Trace
			ninj := injection{instants: []Ticks{}, origins: []Ticks{}}
			for _, rec := range trace {
				if rec.Failed {
					continue
				}
				at := timeunit.AddSat(rec.Completed, r.latency)
				if at >= horizon {
					continue
				}
				ninj.instants = append(ninj.instants, at)
				ninj.origins = append(ninj.origins, originOf(r.from, rec.Release))
			}
			next[ri] = ninj
		}
		stable := true
		for ri := range relays {
			if !next[ri].equal(inj[ri]) {
				stable = false
			}
		}
		if stable {
			converged = true
			break
		}
		if rounds >= maxRounds {
			// Leave inj as the lists the final round actually ran
			// with, so the reported stats stay self-consistent.
			break
		}
		for i := range dirty {
			dirty[i] = false
		}
		for ri, r := range relays {
			if !next[ri].equal(inj[ri]) {
				dirty[r.to.seg] = true
			}
			inj[ri] = next[ri]
			cfgs[r.to.seg].Masters[r.to.master].Streams[r.to.stream].Releases = inj[ri].instants
		}
	}

	res := SimResult{Converged: converged, Rounds: rounds}
	for i, s := range t.Segments {
		res.Segments = append(res.Segments, SegmentSimResult{Name: s.Name, Result: results[i]})
	}
	for ri, r := range relays {
		st := RelaySimStats{Bridge: r.bridge, Name: r.relay.Name}
		done := map[Ticks]profibus.CompletionRecord{}
		for _, rec := range results[r.to.seg].PerMaster[r.to.master].PerStream[r.to.stream].Trace {
			done[rec.Release] = rec
		}
		for i, at := range inj[ri].instants {
			origin := inj[ri].origins[i]
			st.Relayed++
			rec, ok := done[at]
			switch {
			case ok && rec.Failed:
				// The destination ring gave up on the cycle: the
				// delivery is lost, which is a miss regardless of the
				// deadline.
				st.Failed++
				st.Missed++
			case ok:
				st.Completed++
				e2e := rec.Completed - origin
				if e2e > st.WorstEndToEnd {
					st.WorstEndToEnd = e2e
				}
				st.SumEndToEnd += e2e
				if rec.Completed > timeunit.AddSat(origin, r.relay.Deadline) {
					st.Missed++
				}
			default:
				st.Pending++
				if lb := horizon - origin; lb > st.WorstEndToEnd {
					st.WorstEndToEnd = lb
				}
				if horizon > timeunit.AddSat(origin, r.relay.Deadline) {
					st.Missed++
				}
			}
		}
		res.Relays = append(res.Relays, st)
	}
	return res, nil
}
