// Package timeunit provides the integer time base used throughout profirt.
//
// All schedulability analyses in the reproduced paper are fixed-point
// iterations over task/message attributes (C, D, T, J, B). Carrying them
// out in integer arithmetic makes every iteration exact and makes
// convergence a simple equality test. The canonical unit is the "tick":
// for the PROFIBUS modules one tick is one bit time at the configured
// baud rate; for the generic single-processor modules a tick is an
// arbitrary time quantum chosen by the caller.
package timeunit

import "fmt"

// Ticks is a span of time measured in integer ticks. Negative spans are
// permitted in intermediate arithmetic (e.g. t - D in demand-bound
// computations) but most public APIs validate non-negativity at the edge.
type Ticks int64

// MaxTicks is the largest representable span. It is used as an
// "unschedulable / diverged" marker by the response-time analyses.
const MaxTicks Ticks = 1<<63 - 1

// String renders the span as a plain integer tick count.
func (t Ticks) String() string {
	if t == MaxTicks {
		return "∞"
	}
	return fmt.Sprintf("%d", int64(t))
}

// CeilDiv returns ⌈a/b⌉ for b > 0, correct for negative a.
// It panics if b <= 0 because every divisor in the reproduced analyses is
// a period or cycle length, which must be positive.
func CeilDiv(a, b Ticks) Ticks {
	if b <= 0 {
		panic(fmt.Sprintf("timeunit: CeilDiv by non-positive %d", b))
	}
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// FloorDiv returns ⌊a/b⌋ for b > 0, correct for negative a.
func FloorDiv(a, b Ticks) Ticks {
	if b <= 0 {
		panic(fmt.Sprintf("timeunit: FloorDiv by non-positive %d", b))
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// JobsWithDeadlineBy returns the maximum number of instances of a stream
// with relative deadline d, period p and release jitter j that can have
// their absolute deadline at or before t, counting from a synchronous
// release at time 0 (the first deadline falls at d-j at the earliest).
// This is the corrected form of the paper's ⌈(t−D)/T⌉⁺ factor:
// max(0, ⌊(t+j−d)/p⌋ + 1).
func JobsWithDeadlineBy(t, d, p, j Ticks) Ticks {
	x := t + j - d
	if x < 0 {
		return 0
	}
	return FloorDiv(x, p) + 1
}

// Min returns the smaller of a and b.
func Min(a, b Ticks) Ticks {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Ticks) Ticks {
	if a > b {
		return a
	}
	return b
}

// AddSat returns a+b, saturating at MaxTicks instead of overflowing.
func AddSat(a, b Ticks) Ticks {
	if a == MaxTicks || b == MaxTicks {
		return MaxTicks
	}
	s := a + b
	if a > 0 && b > 0 && s < 0 {
		return MaxTicks
	}
	return s
}

// MulSat returns a*b for non-negative operands, saturating at MaxTicks.
func MulSat(a, b Ticks) Ticks {
	if a == 0 || b == 0 {
		return 0
	}
	if a == MaxTicks || b == MaxTicks {
		return MaxTicks
	}
	s := a * b
	if s/b != a || s < 0 {
		return MaxTicks
	}
	return s
}

// GCD returns the greatest common divisor of a and b (non-negative).
func GCD(a, b Ticks) Ticks {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, saturating at
// MaxTicks on overflow. LCM(0, x) = 0.
func LCM(a, b Ticks) Ticks {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	return MulSat(a/g, b)
}

// Hyperperiod returns the LCM of all spans, saturating at MaxTicks. An
// empty input yields 1 so callers can multiply safely.
func Hyperperiod(spans []Ticks) Ticks {
	h := Ticks(1)
	for _, s := range spans {
		h = LCM(h, s)
		if h == MaxTicks {
			return MaxTicks
		}
	}
	return h
}
