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
	enc   Enc
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// build writes the cache key of one (kind, tcycle, opts, stream set)
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
// breaks deadline ties by input position. When kind is order-sensitive
// (DM) and two streams with equal D differ in any other attribute, the
// input order carries meaning, so the key falls back to encoding the
// caller's order verbatim (flagged in the encoding) and the canonical
// ordering degenerates to the input order. Identical duplicate streams
// never force the fallback: interchangeable tuples are interchangeable
// positions. Either way, cached and uncached results stay byte-
// identical.
//
// opts carries the flattened analysis options; kind-distinct layouts
// may reuse word positions because kind itself leads the encoding.
func (sc *keyScratch) build(kind Kind, tcycle Ticks, opts []uint64, streams []core.Stream, orderSensitive bool) *Enc {
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
		for k := 1; k < n; k++ {
			a, b := streams[idx[k-1]], streams[idx[k]]
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
	e.reset(kind)
	e.Bool(ordered)
	e.Ticks(tcycle)
	e.Int(len(opts))
	for _, o := range opts {
		e.Word(o)
	}
	e.Int(n)
	for _, s := range canon {
		e.Ticks(s.Ch)
		e.Ticks(s.D)
		e.Ticks(s.T)
		e.Ticks(s.J)
	}
	return e
}
