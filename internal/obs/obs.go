// Package obs is profirt's dependency-free observability layer:
// log-spaced latency histograms, lightweight span tracing with Chrome
// trace_event export, and the repository's single gateway to the wall
// clock.
//
// # The clock boundary
//
// Determinism is the repo's core contract: analysis and simulation
// results must be byte-identical at any parallelism, so wall-clock
// reads are banned from result-producing code by the detrand analyzer
// (see internal/lint). obs is the one package allowed to call
// time.Now. Everything else that needs wall time holds an injectable
// Clock (tests substitute a fake) or calls Now for display-only
// timestamps. The flip side of the bargain: timing data collected
// here is observational only and must never flow into result bytes.
//
// # Histograms
//
// Histogram is a fixed-bucket, log-spaced latency histogram with
// atomic counters: Observe is lock-free and allocation-free, so it is
// safe on hot paths (per pool job, per cache lookup). Snapshot
// produces a HistogramSnapshot whose Count always equals the sum of
// its buckets, which keeps Prometheus renderings internally
// consistent (`le="+Inf"` == `_count`).
//
// # Tracing
//
// Tracer records spans (StartSpan/Span.End) with parent links carried
// through context, and exports them as Chrome trace_event JSON for
// chrome://tracing or Perfetto. Tracing is opt-in per request or per
// run; untraced contexts pay only a context lookup at span-start
// sites and allocate nothing.
package obs

import "time"

// Clock abstracts the wall clock so timing-instrumented code stays
// testable and the time.Now call sites stay confined to this package.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

// Now on the real clock is the repository's only production time.Now
// call site (enforced by the detrand analyzer).
func (realClock) Now() time.Time { return time.Now() }

// Wall is the real wall clock. Passing a nil Clock anywhere in this
// package selects Wall.
var Wall Clock = realClock{}

// Now returns the current wall time. It exists for display-only
// timestamps in commands and examples (log lines, report headers)
// where injecting a Clock would be ceremony; result-producing code
// must not call it.
func Now() time.Time { return Wall.Now() }

// orWall returns c, or Wall when c is nil.
func orWall(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}
