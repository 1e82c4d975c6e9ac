package fdl

import (
	"fmt"

	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base; in this package one tick is one
// bit time, so no baud rate enters any duration.
type Ticks = timeunit.Ticks

// BusParams collects the FDL timing parameters that determine frame and
// message-cycle durations. All values are in bit times, matching the
// DIN 19245 convention of specifying delays in t_bit.
type BusParams struct {
	// TSDRmin/TSDRmax bound the responder's station delay: the gap
	// between the end of the action frame and the start of the
	// acknowledgement/response.
	TSDRmin Ticks
	TSDRmax Ticks
	// TID1 is the initiator's idle time after receiving an
	// acknowledgement/response/token before the next transmission.
	TID1 Ticks
	// TSL is the slot time: how long the initiator waits for the first
	// character of a response before declaring the cycle failed and
	// retrying (or giving up).
	TSL Ticks
	// MaxRetry is the maximum number of retransmissions after a failed
	// cycle (DIN: typically 1..8).
	MaxRetry int
}

// DefaultBusParams returns a parameter set representative of a 500
// kbit/s PROFIBUS-DP-era segment (values in bit times, from the DIN
// 19245 recommended ranges).
func DefaultBusParams() BusParams {
	return BusParams{
		TSDRmin:  11,
		TSDRmax:  60,
		TID1:     37,
		TSL:      100,
		MaxRetry: 1,
	}
}

// Validate reports structurally impossible parameter combinations.
func (p BusParams) Validate() error {
	switch {
	case p.TSDRmin < 0 || p.TSDRmax < p.TSDRmin:
		return fmt.Errorf("fdl: TSDR range [%d,%d] invalid", p.TSDRmin, p.TSDRmax)
	case p.TID1 < 0:
		return fmt.Errorf("fdl: idle times must be non-negative")
	case p.TSL <= p.TSDRmax:
		return fmt.Errorf("fdl: slot time %d must exceed TSDRmax %d (responses would time out)", p.TSL, p.TSDRmax)
	case p.MaxRetry < 0:
		return fmt.Errorf("fdl: MaxRetry must be non-negative")
	}
	return nil
}

// TokenPassTicks returns the time to pass the token: the SD4 frame plus
// the initiator idle time before the next master may transmit. Like
// every sum below it saturates at MaxTicks, because Validate accepts
// any non-negative idle time, station delay and slot time.
func (p BusParams) TokenPassTicks() Ticks {
	return timeunit.AddSat(Ticks(Frame{Kind: KindToken}.Bits()), p.TID1)
}

// CycleTicks returns the duration of one successful message cycle with
// the given action and response frames and the given responder delay
// tsdr (clamped into [TSDRmin, TSDRmax]): action frame + station delay +
// response frame + initiator idle time.
func (p BusParams) CycleTicks(action, response Frame, tsdr Ticks) Ticks {
	if tsdr < p.TSDRmin {
		tsdr = p.TSDRmin
	}
	if tsdr > p.TSDRmax {
		tsdr = p.TSDRmax
	}
	sum := timeunit.AddSat(Ticks(action.Bits()), tsdr)
	sum = timeunit.AddSat(sum, Ticks(response.Bits()))
	return timeunit.AddSat(sum, p.TID1)
}

// FailedAttemptTicks returns the cost of one failed attempt: the action
// frame followed by a full slot-time timeout.
func (p BusParams) FailedAttemptTicks(action Frame) Ticks {
	return timeunit.AddSat(Ticks(action.Bits()), p.TSL)
}

// WorstCaseCycleTicks returns the paper's C_hi: the worst-case length of
// a message cycle including the maximum responder delay and all allowed
// retries (every allowed attempt but the last fails by timeout):
//
//	MaxRetry·(action + T_SL) + action + T_SDRmax + response + T_ID1
func (p BusParams) WorstCaseCycleTicks(action, response Frame) Ticks {
	retries := timeunit.MulSat(Ticks(p.MaxRetry), p.FailedAttemptTicks(action))
	return timeunit.AddSat(retries, p.CycleTicks(action, response, p.TSDRmax))
}

// WorstGapPollTicks returns the worst-case duration of one GAP
// maintenance FDL-Status poll: the larger of a full status cycle
// (request + TSDRmax + status response + TID1) and a timeout on an
// unused address (request + TSL).
func (p BusParams) WorstGapPollTicks() Ticks {
	req := Frame{Kind: KindSD1}
	rsp := Frame{Kind: KindSD1}
	cycle := p.CycleTicks(req, rsp, p.TSDRmax)
	timeout := p.FailedAttemptTicks(req)
	return timeunit.Max(cycle, timeout)
}

// SRDCycle builds the action/response frames of a
// send-and-request-data cycle carrying reqLen data bytes to a slave
// and respLen back: SD2 frames, except an SD1 request when reqLen is
// not positive and a short acknowledgement when respLen is not.
func SRDCycle(reqLen, respLen int) (action, response Frame) {
	action = Frame{Kind: KindSD2, Data: reqLen}
	if reqLen <= 0 {
		action = Frame{Kind: KindSD1}
	}
	response = Frame{Kind: KindSD2, Data: respLen}
	if respLen <= 0 {
		response = Frame{Kind: KindShortAck}
	}
	return action, response
}
