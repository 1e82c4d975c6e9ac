package memo

import (
	"context"
	"slices"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/obs"
	"profirt/internal/timeunit"
)

// This file holds the cache-aware mirrors of the core message
// analyses. Every function takes the cache first and accepts nil for
// "caching disabled", in which case it is a plain delegation to core —
// the higher layers (Engine.AnalyzeNetworks, topology.Analyze,
// holistic.Analyze, the experiment drivers) call these mirrors
// unconditionally and let the cache pointer decide.
//
// Every memoized call takes one path: build the key (encoding.build),
// hash it once and look it up in the one table, keyed by the encoding
// and confirmed byte for byte; on a miss, analyze the caller's streams
// and store the result in the same slot.
//
// The FCFS bound (Eq. 11) is intentionally never cached: it is the
// closed form nh·T_cycle, cheaper than a hash.

// dmOptsWords flattens DMOptions into the key encoding.
func dmOptsWords(o core.DMOptions) [1]uint64 {
	var flags uint64
	if o.Literal {
		flags |= 1
	}
	if o.BlockingFromLowPriority {
		flags |= 2
	}
	return [1]uint64{flags}
}

// edfOptsWords flattens EDFOptions into the key encoding.
func edfOptsWords(o core.EDFOptions) [1]uint64 {
	var flags uint64
	if o.BlockingFromLowPriority {
		flags |= 1
	}
	return [1]uint64{flags}
}

// cachedResponseTimes is the one lookup/store flow behind the DM and
// EDF wrappers. analyze must be the pure analysis of streams under
// (tcycle, opts); with a nil cache or no streams it simply runs. The
// key encodes exactly that input, so a hit returns what analyze would.
// Both outcomes return a slice the table does not hold, so callers may
// write it. When ctx carries an obs.Tracer the whole memoized call
// records a memo.lookup span (arg = stream count) — cheap hits and
// recompute-on-miss then separate visibly in trace exports. ctx is
// observational only: it never cancels or otherwise influences the
// analysis, so results stay byte-identical with and without tracing.
func cachedResponseTimes(ctx context.Context, c *Cache, k kind, streams []core.Stream, tcycle Ticks, opts []uint64, analyze func() []Ticks) []Ticks {
	if c == nil || len(streams) == 0 {
		return analyze()
	}
	_, sp := obs.StartSpanArg(ctx, "memo.lookup", int64(len(streams)))
	defer sp.End()
	e := encodingPool.Get().(*encoding)
	defer encodingPool.Put(e)
	e.build(k, tcycle, opts, streams)
	h := e.hash()
	if v, ok := c.lookup(h, e.buf, len(streams)); ok {
		return v
	}
	res := analyze()
	c.store(h, e.buf, res)
	return res
}

// DMResponseTimes is core.DMResponseTimes memoized on c. Results are
// byte-identical to the uncached call for every input.
func DMResponseTimes(c *Cache, streams []core.Stream, tcycle Ticks, opts core.DMOptions) []Ticks {
	return dmResponseTimes(nil, c, streams, tcycle, opts)
}

// dmResponseTimes is DMResponseTimes with observability threaded
// through: a tracer carried by ctx records one memo.lookup span per
// memoized call. Results are identical for every ctx, including nil.
func dmResponseTimes(ctx context.Context, c *Cache, streams []core.Stream, tcycle Ticks, opts core.DMOptions) []Ticks {
	w := dmOptsWords(opts)
	return cachedResponseTimes(ctx, c, kindDM, streams, tcycle, w[:],
		func() []Ticks { return core.DMResponseTimes(streams, tcycle, opts) })
}

// EDFResponseTimes is core.EDFResponseTimes memoized on c.
func EDFResponseTimes(c *Cache, streams []core.Stream, tcycle Ticks, opts core.EDFOptions) []Ticks {
	return edfResponseTimes(nil, c, streams, tcycle, opts)
}

// edfResponseTimes is EDFResponseTimes with observability threaded
// through (see dmResponseTimes).
func edfResponseTimes(ctx context.Context, c *Cache, streams []core.Stream, tcycle Ticks, opts core.EDFOptions) []Ticks {
	w := edfOptsWords(opts)
	return cachedResponseTimes(ctx, c, kindEDF, streams, tcycle, w[:],
		func() []Ticks { return core.EDFResponseTimes(streams, tcycle, opts) })
}

// MasterBounds returns master m's high-priority response bounds under
// dispatcher pol on a ring with token cycle tc. It is the one per-hop
// bound of the chain analyses (holistic and topology), and every bound
// it returns is origin-anchored: measured from the stream's nominal
// release, it includes the release jitter J the stream inherits from
// the previous hop. DM and EDF are the memoized Eqs. 16–18 kernels,
// which include J natively, with stack-slot blocking from low-priority
// traffic iff the master carries any; FCFS is J plus Eq. 11's
// nh·T_cycle, which covers queuing from readiness. The FCFS bounds are
// written into dst's storage when it is large enough (a caller that
// re-evaluates one master every round reuses it); DM and EDF return the
// memo's fresh slice.
func MasterBounds(dst []Ticks, c *Cache, pol ap.Policy, m core.Master, tc Ticks) []Ticks {
	low := m.LongestLow > 0
	switch pol {
	case ap.DM:
		return DMResponseTimes(c, m.High, tc, core.DMOptions{BlockingFromLowPriority: low})
	case ap.EDF:
		return EDFResponseTimes(c, m.High, tc, core.EDFOptions{BlockingFromLowPriority: low})
	default:
		base := core.FCFSResponseTime(m, tc)
		out := slices.Grow(dst[:0], len(m.High))
		for _, s := range m.High {
			out = append(out, timeunit.AddSat(s.J, base))
		}
		return out
	}
}

// DMSchedulable mirrors core.DMSchedulable with the per-master bounds
// memoized on c. Verdicts (which carry master/stream names) are always
// assembled fresh via core.SchedulableWith, so the cache stays
// name-blind and two networks differing only in labels share entries.
func DMSchedulable(c *Cache, n core.Network, opts core.DMOptions) (bool, []core.StreamVerdict) {
	return DMSchedulableCtx(nil, c, n, opts)
}

// DMSchedulableCtx is DMSchedulable with observability threaded
// through (see dmResponseTimes).
func DMSchedulableCtx(ctx context.Context, c *Cache, n core.Network, opts core.DMOptions) (bool, []core.StreamVerdict) {
	return core.SchedulableWith(n, func(m core.Master, tc Ticks) []Ticks {
		o := opts
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return dmResponseTimes(ctx, c, m.High, tc, o)
	})
}

// EDFSchedulableNet mirrors core.EDFSchedulableNet with the per-master
// bounds memoized on c.
func EDFSchedulableNet(c *Cache, n core.Network, opts core.EDFOptions) (bool, []core.StreamVerdict) {
	return EDFSchedulableNetCtx(nil, c, n, opts)
}

// EDFSchedulableNetCtx is EDFSchedulableNet with observability
// threaded through (see dmResponseTimes).
func EDFSchedulableNetCtx(ctx context.Context, c *Cache, n core.Network, opts core.EDFOptions) (bool, []core.StreamVerdict) {
	return core.SchedulableWith(n, func(m core.Master, tc Ticks) []Ticks {
		o := opts
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return edfResponseTimes(ctx, c, m.High, tc, o)
	})
}
