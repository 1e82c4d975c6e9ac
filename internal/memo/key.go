package memo

import (
	"sort"
	"sync"

	"profirt/internal/core"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

// streamLess is the canonical total preorder on normalized streams:
// (D, T, Ch, J) lexicographically. Names are excluded — they never
// enter the response-time arithmetic.
func streamLess(a, b core.Stream) bool {
	switch {
	case a.D != b.D:
		return a.D < b.D
	case a.T != b.T:
		return a.T < b.T
	case a.Ch != b.Ch:
		return a.Ch < b.Ch
	default:
		return a.J < b.J
	}
}

func sameTuple(a, b core.Stream) bool {
	return a.Ch == b.Ch && a.D == b.D && a.T == b.T && a.J == b.J
}

// keyScratch carries the canonicalization and encoding buffers of one
// wrapper invocation. Pooled: the wrappers run once per analysis call
// on the batch hot path, and the index/canon/perm/encode allocations
// used to dominate the cost of a lookup.
type keyScratch struct {
	idx   []int
	perm  []int
	canon []core.Stream
	enc   encoding
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// build writes the cache key of one (k, tcycle, opts, stream set)
// analysis invocation into sc.enc and returns it, leaving the
// canonical stream ordering in sc.canon and the permutation in sc.perm
// with perm[i] = canonical position of caller stream i, so cached
// canonical-order results map back to the caller's order.
//
// The canonical ordering sorts streams by (D, T, Ch, J), making the
// key order-insensitive: permuting the caller's streams yields the
// same key and the same (re-permuted) results. That normalization is
// sound because the FCFS/DM/EDF message analyses are permutation-
// equivariant — every stream's bound depends only on its own attributes
// and the multiset of the others — with one exception: the DM analysis
// breaks deadline ties by input position. When orderSensitive is set
// (DM) and two streams with equal D differ in any other attribute, the
// input order carries meaning, so the key falls back to encoding the
// caller's order verbatim (flagged in the encoding) and the canonical
// ordering degenerates to the input order. Identical duplicate streams
// never force the fallback: interchangeable tuples are interchangeable
// positions. Either way, cached and uncached results stay byte-
// identical.
//
// opts carries the flattened analysis options; kind-distinct layouts
// may reuse word positions because the kind itself leads the encoding.
func (sc *keyScratch) build(k kind, tcycle Ticks, opts []uint64, streams []core.Stream, orderSensitive bool) *encoding {
	n := len(streams)
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
		sc.perm = make([]int, n)
		sc.canon = make([]core.Stream, n)
	}
	idx := sc.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	// Stable: equal tuples keep the caller's relative order, so
	// duplicate streams map back onto themselves.
	sort.SliceStable(idx, func(x, y int) bool {
		return streamLess(streams[idx[x]], streams[idx[y]])
	})

	ordered := false
	if orderSensitive {
		for i := 1; i < n; i++ {
			a, b := streams[idx[i-1]], streams[idx[i]]
			if a.D == b.D && !sameTuple(a, b) {
				ordered = true
				break
			}
		}
	}
	if ordered {
		for i := range idx {
			idx[i] = i
		}
	}

	canon := sc.canon[:n]
	perm := sc.perm[:n]
	for pos, orig := range idx {
		s := streams[orig]
		s.Name = ""
		canon[pos] = s
		perm[orig] = pos
	}
	sc.canon, sc.perm = canon, perm

	e := &sc.enc
	e.reset(k)
	e.flag(ordered)
	e.ticks(tcycle)
	e.count(len(opts))
	for _, o := range opts {
		e.word(o)
	}
	e.count(n)
	for _, s := range canon {
		e.ticks(s.Ch)
		e.ticks(s.D)
		e.ticks(s.T)
		e.ticks(s.J)
	}
	return e
}
