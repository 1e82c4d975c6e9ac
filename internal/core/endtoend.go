package core

import "profirt/internal/timeunit"

// EndToEnd decomposes the end-to-end communication delay of the paper's
// Section 4.2: E = g + Q + C + d.
type EndToEnd struct {
	// Generation is g: the worst-case delay for the sending application
	// task to generate and queue the request. It doubles as the
	// message's release jitter bound J (Sec. 4.1) used inside the
	// queuing analysis.
	Generation Ticks
	// Queuing is Q: the worst-case delay from queuing until the request
	// gains access to the bus.
	Queuing Ticks
	// Cycle is C: the worst-case message cycle (request transmission,
	// slave processing and turnaround, response, retries).
	Cycle Ticks
	// Delivery is d: processing the response and delivering it to the
	// destination task (same host processor in PROFIBUS).
	Delivery Ticks
}

// Total returns E = g + Q + C + d.
func (e EndToEnd) Total() Ticks {
	t := timeunit.AddSat(e.Generation, e.Queuing)
	t = timeunit.AddSat(t, e.Cycle)
	return timeunit.AddSat(t, e.Delivery)
}

// Compose builds the decomposition from an origin-anchored message
// bound R and the task-level generation and delivery bounds. R is
// measured from the nominal release of the generating task, so it
// covers g + Q + C: it is the bound of a stream whose release jitter J
// is the generation bound g (Sec. 4.1), as DMResponseTimes,
// EDFResponseTimes and J + FCFSResponseTime produce it. The queuing
// share is recovered as Q = max(0, R − g − C); an R of MaxTicks (a
// divergent bound) gives Q = MaxTicks.
func Compose(generation, msgResponse, cycle, delivery Ticks) EndToEnd {
	q := timeunit.MaxTicks
	if msgResponse != timeunit.MaxTicks {
		q = msgResponse - min(msgResponse, timeunit.AddSat(generation, cycle))
	}
	return EndToEnd{
		Generation: generation,
		Queuing:    q,
		Cycle:      cycle,
		Delivery:   delivery,
	}
}
