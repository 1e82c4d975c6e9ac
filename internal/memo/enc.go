package memo

import (
	"encoding/binary"
	"sync"
)

// Kind tags which analysis an encoding addresses. It is the first byte
// of every encoding, so equal inputs under different analyses can
// never share an entry.
type Kind byte

// Analysis kinds.
const (
	// KindDM keys the Eq. 16 deadline-monotonic message RTA.
	KindDM Kind = 1
	// KindEDF keys the Eqs. 17–18 EDF message RTA.
	KindEDF Kind = 2
	// KindHolistic keys whole holistic.Analyze results on the full
	// configuration encoding.
	KindHolistic Kind = 3
	// KindTopology keys whole topology.Analyze results on the full
	// topology + options encoding.
	KindTopology Kind = 4
)

// Enc is the canonical byte encoding of one analysis input, and the
// Cache's key: the Kind byte, then every field that can influence the
// result in a fixed traversal order. The DM/EDF wrappers write it from
// the canonical stream ordering (keyScratch.build); the composition
// layers walk their whole configuration — names included, because they
// surface verbatim in the reports. Obtain one from GetEnc and return
// it with PutEnc so the buffer is reused across invocations.
//
// Numbers are uvarints, which are self-delimiting; strings are
// length-prefixed and the traversal emits collection lengths, so
// distinct inputs can never share an encoding.
type Enc struct {
	buf []byte
}

var encPool = sync.Pool{New: func() any { return new(Enc) }}

// GetEnc returns an encoder from the pool holding only the kind byte.
func GetEnc(kind Kind) *Enc {
	e := encPool.Get().(*Enc)
	e.reset(kind)
	return e
}

// PutEnc returns an encoder to the pool.
func PutEnc(e *Enc) {
	encPool.Put(e)
}

func (e *Enc) reset(kind Kind) { e.buf = append(e.buf[:0], byte(kind)) }

// Word appends one unsigned integer as a uvarint.
func (e *Enc) Word(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Ticks appends one time value.
func (e *Enc) Ticks(t Ticks) { e.Word(uint64(t)) }

// Int appends one integer (lengths, iteration caps, enums).
func (e *Enc) Int(v int) { e.Word(uint64(int64(v))) }

// Bool appends one flag byte.
func (e *Enc) Bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	e.buf = append(e.buf, v)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

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
func (e *Enc) hash() uint64 {
	buf := e.buf
	h := uint64(hashSeed)
	for ; len(buf) >= 8; buf = buf[8:] {
		h = mixWord(h, binary.LittleEndian.Uint64(buf))
	}
	var tail [8]byte
	copy(tail[:], buf)
	return mixWord(mixWord(h, binary.LittleEndian.Uint64(tail[:])), uint64(len(buf)))
}
