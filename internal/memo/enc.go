package memo

import (
	"encoding/binary"
	"sync"

	"profirt/internal/core"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

// kind tags which analysis an encoding addresses. It is the first byte
// of every encoding, so equal inputs under different analyses can
// never share an entry.
type kind byte

// Analysis kinds.
const (
	// kindDM keys the Eq. 16 deadline-monotonic message RTA.
	kindDM kind = 1
	// kindEDF keys the Eqs. 17–18 EDF message RTA.
	kindEDF kind = 2
)

// encoding is the byte encoding of one DM/EDF analysis input, and the
// Cache's key: the kind byte, then every field that can influence the
// result in a fixed traversal order (see build). Only this package
// writes one, so the key format is private to the cache.
//
// Numbers are uvarints, which are self-delimiting, and the traversal
// emits collection lengths, so distinct inputs can never share an
// encoding.
type encoding struct {
	buf []byte
}

// encodingPool recycles key buffers: the analysis wrappers build one
// per memoized call on the batch hot path.
var encodingPool = sync.Pool{New: func() any { return new(encoding) }}

// build writes the key of one (k, tcycle, opts, stream set) analysis
// invocation: the kind, T_cycle, the option words, then each stream's
// (Ch, D, T, J) in the caller's order. Names are excluded — they never
// enter the response-time arithmetic — so networks differing only in
// labels share entries. The key holds exactly the input the analysis
// sees, so equal keys have equal bounds.
//
// opts carries the flattened analysis options; kind-distinct layouts
// may reuse word positions because the kind itself leads the encoding.
func (e *encoding) build(k kind, tcycle Ticks, opts []uint64, streams []core.Stream) {
	e.reset(k)
	e.ticks(tcycle)
	e.count(len(opts))
	for _, o := range opts {
		e.word(o)
	}
	e.count(len(streams))
	for _, s := range streams {
		e.ticks(s.Ch)
		e.ticks(s.D)
		e.ticks(s.T)
		e.ticks(s.J)
	}
}

func (e *encoding) reset(k kind) { e.buf = append(e.buf[:0], byte(k)) }

// word appends one unsigned integer as a uvarint.
func (e *encoding) word(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// ticks appends one time value.
func (e *encoding) ticks(t Ticks) { e.word(uint64(t)) }

// count appends one collection length.
func (e *encoding) count(n int) { e.word(uint64(n)) }

// hashSeed is the hash's starting state (the FNV-1a 64-bit offset
// basis, kept for familiarity — the mix rounds are not FNV).
const hashSeed = 14695981039346656037

// mixWord folds one 64-bit word into the hash state with a
// multiply–xorshift round (splitmix64's finalizer structure): one
// multiply per eight bytes, because every lookup hashes its encoding.
func mixWord(h, v uint64) uint64 {
	h ^= v
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// hash picks the encoding's shard and slot: mix rounds over the buffer
// eight bytes at a time; the ragged tail is zero-padded and followed
// by its byte count, so a buffer ending in literal zero bytes does not
// alias the padding. The hash never leaves the process and only
// spreads entries: a hit is confirmed by comparing the stored encoding
// byte for byte, so a collision costs a recomputation, never a wrong
// result.
func (e *encoding) hash() uint64 {
	buf := e.buf
	h := uint64(hashSeed)
	for ; len(buf) >= 8; buf = buf[8:] {
		h = mixWord(h, binary.LittleEndian.Uint64(buf))
	}
	var tail [8]byte
	copy(tail[:], buf)
	return mixWord(mixWord(h, binary.LittleEndian.Uint64(tail[:])), uint64(len(buf)))
}
