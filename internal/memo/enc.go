package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Enc builds the canonical byte encoding of a whole configuration for
// whole-result memoization (KindHolistic, KindTopology). It is a plain
// append-only buffer: the composition layers walk their configuration
// in a fixed traversal order, writing every field that can influence
// the result — names included, because they surface verbatim in the
// reports. Obtain one from GetEnc and return it with PutEnc so the
// buffer is reused across invocations.
//
// Variable-length fields (strings) are length-prefixed and the
// traversal emits collection lengths, so distinct configurations can
// never share an encoding.
type Enc struct {
	buf []byte
}

var encPool = sync.Pool{New: func() any { return new(Enc) }}

// GetEnc returns an empty encoder from the pool.
func GetEnc() *Enc {
	e := encPool.Get().(*Enc)
	e.buf = e.buf[:0]
	return e
}

// PutEnc returns an encoder to the pool.
func PutEnc(e *Enc) {
	encPool.Put(e)
}

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.buf = append(e.buf, b) }

// Word appends one 64-bit word, little-endian.
func (e *Enc) Word(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Ticks appends one time value.
func (e *Enc) Ticks(t Ticks) { e.Word(uint64(t)) }

// Int appends one integer (lengths, iteration caps, enums).
func (e *Enc) Int(v int) { e.Word(uint64(int64(v))) }

// Bool appends one flag.
func (e *Enc) Bool(b bool) { e.buf = append(e.buf, flag(b)) }

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Word(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// EncToken carries the hashes LookupEncoded computed, so the matching
// StoreEncoded call never re-derives them. The zero token is valid for
// a store against a nil/never-probed cache (StoreEncoded re-hashes as
// needed).
type EncToken struct {
	kind   Kind
	pre    uint64
	key    Key
	hashed bool
}

// encPre is the pre-filter hash of an encoded configuration: mix
// rounds over the buffer eight bytes at a time; the ragged tail is
// zero-padded and followed by its byte count, so a buffer ending in
// literal zero bytes cannot alias the padding.
func encPre(kind Kind, buf []byte) uint64 {
	h := mixWord(preSeed, uint64(kind))
	for len(buf) >= 8 {
		h = mixWord(h, binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	if len(buf) > 0 {
		var tail [8]byte
		copy(tail[:], buf)
		h = mixWord(h, binary.LittleEndian.Uint64(tail[:]))
	}
	return mixWord(h, uint64(len(buf)))
}

// encKey is the content address of an encoded configuration. The
// version and kind prefix mirrors the stream-set key layout, so the
// two key families share one table without colliding.
func encKey(kind Kind, e *Enc) Key {
	h := sha256.New()
	h.Write([]byte{keyVersion, byte(kind)})
	h.Write(e.buf)
	var k Key
	h.Sum(k[:0])
	return k
}

// LookupEncoded probes the cache for the value stored under kind and
// the encoded configuration. The counting pre-filter resolves
// guaranteed misses before the SHA-256 key is computed; the returned
// token carries whatever hashes were derived so StoreEncoded never
// recomputes them. Lookups count in Stats like every other cache
// access. Safe on a nil receiver (always a miss).
func (c *Cache) LookupEncoded(kind Kind, e *Enc) (any, EncToken, bool) {
	tok := EncToken{kind: kind}
	if c == nil {
		return nil, tok, false
	}
	tok.pre = encPre(kind, e.buf)
	if !c.mayContain(tok.pre) {
		c.countMiss()
		return nil, tok, false
	}
	tok.key = encKey(kind, e)
	tok.hashed = true
	v, ok := c.Get(tok.key)
	return v, tok, ok
}

// StoreEncoded stores v under the configuration probed by the matching
// LookupEncoded call. Stored values must be treated as immutable by
// every future reader: callers store (and return) deep copies of
// result structures. Safe on a nil receiver (no-op).
func (c *Cache) StoreEncoded(tok EncToken, e *Enc, v any) {
	if c == nil {
		return
	}
	if tok.pre == 0 {
		tok.pre = encPre(tok.kind, e.buf)
	}
	if !tok.hashed {
		tok.key = encKey(tok.kind, e)
	}
	c.putPre(tok.key, tok.pre, v)
}
