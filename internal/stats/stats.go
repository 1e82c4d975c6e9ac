// Package stats provides the reporting toolkit of the experiment
// harness and the campaign runner: acceptance ratios, a table model
// with plain/markdown/CSV renderers, and a row streamer that releases
// finished rows in grid order.
package stats

import "fmt"

// Ratio is a convenience for acceptance-ratio style cells: k successes
// out of n trials, rendered as a fraction.
type Ratio struct{ K, N int }

// Value returns K/N (0 when N == 0).
func (r Ratio) Value() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.K) / float64(r.N)
}

// String renders the ratio as "0.873".
func (r Ratio) String() string { return fmt.Sprintf("%.3f", r.Value()) }
