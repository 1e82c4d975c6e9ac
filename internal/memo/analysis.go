package memo

import (
	"context"

	"profirt/internal/core"
	"profirt/internal/obs"
)

// This file holds the cache-aware mirrors of the core message
// analyses. Every function takes the cache first and accepts nil for
// "caching disabled", in which case it is a plain delegation to core —
// the higher layers (Engine.AnalyzeNetworks, topology.Analyze,
// holistic.Analyze, the experiment drivers) call these mirrors
// unconditionally and let the cache pointer decide.
//
// Lookup order on the hot path: the cheap commutative FNV pre-hash is
// computed first and checked against the counting pre-filter. A
// guaranteed miss runs the analysis directly on the caller's stream
// order (trivially byte-identical to the uncached call) and only then
// canonicalizes once, to store the entry; SHA-256 and the sort run on
// the lookup side only when the filter reports a possible hit.
//
// The FCFS bound (Eq. 11) is intentionally never cached: it is the
// closed form nh·T_cycle, cheaper than a hash.

// dmOptsWords flattens DMOptions into the key encoding.
func dmOptsWords(o core.DMOptions) [2]uint64 {
	var flags uint64
	if o.Literal {
		flags |= 1
	}
	if o.BlockingFromLowPriority {
		flags |= 2
	}
	return [2]uint64{flags, uint64(o.Horizon)}
}

// edfOptsWords flattens EDFOptions into the key encoding.
func edfOptsWords(o core.EDFOptions) [2]uint64 {
	var flags uint64
	if o.BlockingFromLowPriority {
		flags |= 1
	}
	return [2]uint64{flags, uint64(o.Horizon)}
}

// unpermute maps canonical-order results back to the caller's stream
// order: out[i] = canonical[perm[i]]. It always allocates, so cached
// slices are never aliased by callers.
func unpermute(canonical []Ticks, perm []int) []Ticks {
	out := make([]Ticks, len(perm))
	for i, p := range perm {
		out[i] = canonical[p]
	}
	return out
}

// cachedResponseTimes is the shared lookup/store flow behind the DM
// and EDF wrappers. analyze must be the pure per-order analysis; it is
// invoked on the caller's order for guaranteed misses and on the
// canonical order otherwise (sound either way by the permutation-
// equivariance argument in key.go). When ctx carries an obs.Tracer
// the whole memoized call records a memo.lookup span (arg = stream
// count) — cheap hits and recompute-on-miss then separate visibly in
// trace exports. ctx is observational only: it never cancels or
// otherwise influences the analysis, so results stay byte-identical
// with and without tracing.
func cachedResponseTimes(ctx context.Context, c *Cache, kind Kind, streams []core.Stream, tcycle Ticks, opts []uint64, orderSensitive bool, analyze func([]core.Stream) []Ticks) []Ticks {
	_, sp := obs.StartSpanArg(ctx, "memo.lookup", int64(len(streams)))
	defer sp.End()
	pre := streamSetPre(kind, tcycle, opts, streams)
	if !c.mayContain(pre) {
		// Guaranteed miss: no resident entry can match, so skip the
		// sort and SHA-256 on the lookup side and return the direct
		// result. The canonical permutation is still built once, to
		// store the entry where permuted callers will find it.
		c.countMiss()
		res := analyze(streams)
		sc := keyScratchPool.Get().(*keyScratch)
		key := sc.build(kind, tcycle, opts, streams, orderSensitive)
		stored := make([]Ticks, len(res))
		for i, p := range sc.perm {
			stored[p] = res[i]
		}
		keyScratchPool.Put(sc)
		c.putPre(key, pre, stored)
		return res
	}
	sc := keyScratchPool.Get().(*keyScratch)
	key := sc.build(kind, tcycle, opts, streams, orderSensitive)
	if v, ok := c.Get(key); ok {
		out := unpermute(v.([]Ticks), sc.perm)
		keyScratchPool.Put(sc)
		return out
	}
	res := analyze(sc.canon)
	out := unpermute(res, sc.perm)
	keyScratchPool.Put(sc)
	c.putPre(key, pre, res)
	return out
}

// DMResponseTimes is core.DMResponseTimes memoized on c. Results are
// byte-identical to the uncached call for every input (see
// keyScratch.build for why deadline ties are safe).
func DMResponseTimes(c *Cache, streams []core.Stream, tcycle Ticks, opts core.DMOptions) []Ticks {
	return DMResponseTimesCtx(nil, c, streams, tcycle, opts)
}

// DMResponseTimesCtx is DMResponseTimes with observability threaded
// through: a tracer carried by ctx records one memo.lookup span per
// memoized call. Results are identical to DMResponseTimes for every
// ctx, including nil.
func DMResponseTimesCtx(ctx context.Context, c *Cache, streams []core.Stream, tcycle Ticks, opts core.DMOptions) []Ticks {
	if c == nil || len(streams) == 0 {
		return core.DMResponseTimes(streams, tcycle, opts)
	}
	w := dmOptsWords(opts)
	return cachedResponseTimes(ctx, c, KindDM, streams, tcycle, w[:], true,
		func(ss []core.Stream) []Ticks { return core.DMResponseTimes(ss, tcycle, opts) })
}

// EDFResponseTimes is core.EDFResponseTimes memoized on c.
func EDFResponseTimes(c *Cache, streams []core.Stream, tcycle Ticks, opts core.EDFOptions) []Ticks {
	return EDFResponseTimesCtx(nil, c, streams, tcycle, opts)
}

// EDFResponseTimesCtx is EDFResponseTimes with observability threaded
// through (see DMResponseTimesCtx).
func EDFResponseTimesCtx(ctx context.Context, c *Cache, streams []core.Stream, tcycle Ticks, opts core.EDFOptions) []Ticks {
	if c == nil || len(streams) == 0 {
		return core.EDFResponseTimes(streams, tcycle, opts)
	}
	w := edfOptsWords(opts)
	return cachedResponseTimes(ctx, c, KindEDF, streams, tcycle, w[:], false,
		func(ss []core.Stream) []Ticks { return core.EDFResponseTimes(ss, tcycle, opts) })
}

// DMSchedulable mirrors core.DMSchedulable with the per-master bounds
// memoized on c. Verdicts (which carry master/stream names) are always
// assembled fresh via core.SchedulableWith, so the cache stays
// name-blind and two networks differing only in labels share entries.
func DMSchedulable(c *Cache, n core.Network, opts core.DMOptions) (bool, []core.StreamVerdict) {
	return DMSchedulableCtx(nil, c, n, opts)
}

// DMSchedulableCtx is DMSchedulable with observability threaded
// through (see DMResponseTimesCtx).
func DMSchedulableCtx(ctx context.Context, c *Cache, n core.Network, opts core.DMOptions) (bool, []core.StreamVerdict) {
	return core.SchedulableWith(n, func(m core.Master, tc Ticks) []Ticks {
		o := opts
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return DMResponseTimesCtx(ctx, c, m.High, tc, o)
	})
}

// EDFSchedulableNet mirrors core.EDFSchedulableNet with the per-master
// bounds memoized on c.
func EDFSchedulableNet(c *Cache, n core.Network, opts core.EDFOptions) (bool, []core.StreamVerdict) {
	return EDFSchedulableNetCtx(nil, c, n, opts)
}

// EDFSchedulableNetCtx is EDFSchedulableNet with observability
// threaded through (see DMResponseTimesCtx).
func EDFSchedulableNetCtx(ctx context.Context, c *Cache, n core.Network, opts core.EDFOptions) (bool, []core.StreamVerdict) {
	return core.SchedulableWith(n, func(m core.Master, tc Ticks) []Ticks {
		o := opts
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return EDFResponseTimesCtx(ctx, c, m.High, tc, o)
	})
}
