package fdl

import (
	"testing"

	"profirt/internal/timeunit"
)

func TestDefaultBusParamsValid(t *testing.T) {
	if err := DefaultBusParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBusParamsValidate(t *testing.T) {
	cases := []struct {
		mutate func(*BusParams)
	}{
		{func(p *BusParams) { p.TSDRmax = p.TSDRmin - 1 }},
		{func(p *BusParams) { p.TSDRmin = -1 }},
		{func(p *BusParams) { p.TID1 = -1 }},
		{func(p *BusParams) { p.TSL = p.TSDRmax }},
		{func(p *BusParams) { p.MaxRetry = -1 }},
	}
	for i, c := range cases {
		p := DefaultBusParams()
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTokenPassTicks(t *testing.T) {
	p := DefaultBusParams()
	// Token frame: 3 chars × 11 bits = 33, + TID1 = 37 ⇒ 70.
	if got := p.TokenPassTicks(); got != 70 {
		t.Errorf("TokenPassTicks = %d, want 70", got)
	}
}

func TestCycleTicks(t *testing.T) {
	p := DefaultBusParams()
	action := Frame{Kind: KindSD1}            // 66 bits
	response := Frame{Kind: KindShortAck}     // 11 bits
	got := p.CycleTicks(action, response, 20) // tsdr within range
	want := Ticks(66 + 20 + 11 + 37)
	if got != want {
		t.Errorf("CycleTicks = %d, want %d", got, want)
	}
	// Clamping below and above.
	if p.CycleTicks(action, response, 0) != 66+11+11+37 {
		t.Error("tsdr must clamp to TSDRmin")
	}
	if p.CycleTicks(action, response, 10_000) != 66+60+11+37 {
		t.Error("tsdr must clamp to TSDRmax")
	}
}

func TestWorstCaseCycleTicks(t *testing.T) {
	p := DefaultBusParams()
	p.MaxRetry = 2
	action := Frame{Kind: KindSD1}    // 66 bits
	resp := Frame{Kind: KindShortAck} // 11
	// 2 failed attempts: 2·(66+100) + success: 66+60+11+37 = 332+174 = 506
	if got := p.WorstCaseCycleTicks(action, resp); got != 506 {
		t.Errorf("WorstCaseCycleTicks = %d, want 506", got)
	}
	// Zero retries reduces to a single max-delay cycle.
	p.MaxRetry = 0
	if got := p.WorstCaseCycleTicks(action, resp); got != 174 {
		t.Errorf("no-retry worst cycle = %d, want 174", got)
	}
}

func TestSRDCycleShapes(t *testing.T) {
	act, rsp := SRDCycle(2, 3)
	if act != (Frame{Kind: KindSD2, Data: 2}) || rsp != (Frame{Kind: KindSD2, Data: 3}) {
		t.Errorf("non-empty payloads: %+v/%+v, want SD2 frames of 2 and 3 data bytes", act, rsp)
	}

	act, rsp = SRDCycle(0, 0)
	if act != (Frame{Kind: KindSD1}) {
		t.Errorf("empty request: %+v, want SD1", act)
	}
	if rsp != (Frame{Kind: KindShortAck}) {
		t.Errorf("empty response: %+v, want a short ack", rsp)
	}
}

func TestWorstGapPollTicks(t *testing.T) {
	p := DefaultBusParams()
	// SD1 is 6 chars = 66 bits. Full status cycle: 66 + TSDRmax(60) +
	// 66 + TID1(37) = 229; timeout: 66 + TSL(100) = 166. Worst = 229.
	if got := p.WorstGapPollTicks(); got != 229 {
		t.Errorf("WorstGapPollTicks = %d, want 229", got)
	}
	// With a huge slot time the timeout dominates.
	p.TSL = 1_000
	if got := p.WorstGapPollTicks(); got != 66+1_000 {
		t.Errorf("timeout-dominated poll = %d, want %d", got, 66+1_000)
	}
}

// TestBusSumsSaturate pins the saturation of the bus timing sums:
// Validate accepts any non-negative idle time, station delay and slot
// time, so a wire value near MaxTicks must give MaxTicks, not a sum
// that wraps negative.
func TestBusSumsSaturate(t *testing.T) {
	const maxT = timeunit.MaxTicks
	ack := Frame{Kind: KindShortAck}
	sd1 := Frame{Kind: KindSD1}

	p := DefaultBusParams()
	p.TID1 = maxT
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.TokenPassTicks(); got != maxT {
		t.Errorf("TokenPassTicks with TID1 = MaxTicks: %d, want MaxTicks", got)
	}
	if got := p.CycleTicks(sd1, ack, 20); got != maxT {
		t.Errorf("CycleTicks with TID1 = MaxTicks: %d, want MaxTicks", got)
	}

	p = DefaultBusParams()
	p.TSDRmax, p.TSL = maxT-1, maxT
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.CycleTicks(sd1, ack, maxT-1); got != maxT {
		t.Errorf("CycleTicks with tsdr = MaxTicks-1: %d, want MaxTicks", got)
	}
	if got := p.FailedAttemptTicks(sd1); got != maxT {
		t.Errorf("FailedAttemptTicks with TSL = MaxTicks: %d, want MaxTicks", got)
	}

	// A MaxTicks slot time with default delays: a poll of an unused
	// address waits the whole slot time, so the GAP poll bound must be
	// MaxTicks too, not the status cycle.
	p = DefaultBusParams()
	p.TSL = maxT
	if got := p.WorstGapPollTicks(); got != maxT {
		t.Errorf("WorstGapPollTicks with TSL = MaxTicks: %d, want MaxTicks", got)
	}
}

// TestFrameBits pins the frame lengths of DIN 19245-1 in characters,
// and in bit times at 11 bits (start, 8 data, parity, stop) a
// character, for every kind.
func TestFrameBits(t *testing.T) {
	for _, c := range []struct {
		f     Frame
		chars int
	}{
		{Frame{Kind: KindSD1}, 6},
		{Frame{Kind: KindSD2}, 9},
		{Frame{Kind: KindSD2, Data: 1}, 10},
		{Frame{Kind: KindSD2, Data: 246}, 255},
		{Frame{Kind: KindSD3, Data: 8}, 14},
		{Frame{Kind: KindToken}, 3},
		{Frame{Kind: KindShortAck}, 1},
		{Frame{Kind: Kind(42)}, 0},
	} {
		if got := c.f.Chars(); got != c.chars {
			t.Errorf("%v with %d data bytes: Chars = %d, want %d", c.f.Kind, c.f.Data, got, c.chars)
		}
		if got, want := c.f.Bits(), int64(c.chars)*11; got != want {
			t.Errorf("%v with %d data bytes: Bits = %d, want %d", c.f.Kind, c.f.Data, got, want)
		}
	}
}
