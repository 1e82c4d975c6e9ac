// Package profibus is a bit-time-accurate discrete-event simulator of
// the PROFIBUS medium access control described in Section 3.1 of the
// reproduced paper: a logical ring of master stations passing a token,
// each controlling its token-holding time T_TH = T_TR − T_RR, executing
// master–slave message cycles (with station delays and retries per DIN
// 19245 framing), and — when so configured — dispatching requests
// through the application-process priority queue of Section 4 with the
// stack queue limited to one pending request.
//
// The simulator implements the paper's token-passing listing verbatim,
// including the at-most-one-high-priority-cycle rule for a late token
// and the T_TH overrun semantics (a started cycle always completes).
//
// Network derives the analytic model (core.Network) that the paper's
// bounds read from a simulator configuration; it is the library's only
// such derivation, so analysis and simulation of one Config always
// describe the same system.
package profibus

import (
	"errors"
	"fmt"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/fdl"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base (bit times).
type Ticks = timeunit.Ticks

// JitterMode mirrors cpusim's release-jitter realisations.
type JitterMode int

const (
	// JitterNone releases at nominal instants.
	JitterNone JitterMode = iota
	// JitterRandom delays readiness uniformly in [0, J].
	JitterRandom
	// JitterAdversarial delays only the first release by the full J.
	JitterAdversarial
)

// StreamConfig describes one message stream of a master (the paper's
// S_hi^k or a low-priority stream). Timing parameters are inherited
// from the generating application task (Sec. 4.1).
type StreamConfig struct {
	// Name labels the stream in results.
	Name string
	// Slave is the responder's station address.
	Slave byte
	// High selects the PROFIBUS high-priority message class.
	High bool
	// Period is the minimum inter-release time T.
	Period Ticks
	// Deadline is the relative deadline D.
	Deadline Ticks
	// Jitter is the worst-case release jitter J inherited from the
	// sending task.
	Jitter Ticks
	// Offset shifts the first nominal release.
	Offset Ticks
	// ReqBytes/RespBytes size the SRD request and response payloads,
	// determining the frame lengths.
	ReqBytes  int
	RespBytes int
	// Releases, when non-nil, replaces the periodic release pattern with
	// an explicit sorted list of release instants (the topology
	// simulator injects bridge-relayed requests this way). Explicit
	// releases carry real arrival instants, so Offset and Jitter are
	// ignored; Period and Deadline still describe the stream for
	// validation, dispatching and deadline accounting. An empty non-nil
	// slice means the stream releases nothing.
	Releases []Ticks
	// Trace enables this stream's cycle trace (StreamStats.Trace): one
	// record per terminated cycle — successful or abandoned after all
	// retries — in termination order. The topology simulator traces
	// bridge-relay endpoints this way; other runs leave it off to avoid
	// the allocation.
	Trace bool
}

// Frames builds the stream's action/response frame pair from its
// payload sizes.
func (s StreamConfig) Frames() (action, response fdl.Frame) {
	return fdl.SRDCycle(s.ReqBytes, s.RespBytes)
}

// WorstCycleTicks returns the stream's C_hi under the bus parameters:
// worst-case message-cycle length including retries (paper Sec. 3.2).
func (s StreamConfig) WorstCycleTicks(bus fdl.BusParams) Ticks {
	a, r := s.Frames()
	return bus.WorstCaseCycleTicks(a, r)
}

// Network derives the analytic model of a simulator configuration, so
// one description drives both analysis and simulation. Each master,
// named M<addr>, gets one core.Stream per high-priority stream in
// configuration order, with C_hi from WorstCycleTicks (frame payloads,
// station delays and retry budget), and its longest low-priority cycle
// as Cl; the network's GapPoll term is set only when GAP maintenance is
// on (GapFactor > 0).
func Network(cfg Config) core.Network {
	net := core.Network{TTR: cfg.TTR, TokenPass: cfg.Bus.TokenPassTicks()}
	if cfg.GapFactor > 0 {
		net.GapPoll = cfg.Bus.WorstGapPollTicks()
	}
	for _, mc := range cfg.Masters {
		m := core.Master{Name: fmt.Sprintf("M%d", mc.Addr)}
		for _, sc := range mc.Streams {
			ch := sc.WorstCycleTicks(cfg.Bus)
			if sc.High {
				m.High = append(m.High, core.Stream{
					Name: sc.Name, Ch: ch, D: sc.Deadline, T: sc.Period, J: sc.Jitter,
				})
			} else if ch > m.LongestLow {
				m.LongestLow = ch
			}
		}
		net.Masters = append(net.Masters, m)
	}
	return net
}

// MasterConfig describes one master station.
type MasterConfig struct {
	// Addr is the station address; masters form the logical ring in
	// ascending address order.
	Addr byte
	// Streams are the station's message streams.
	Streams []StreamConfig
	// Dispatcher selects the AP-level policy for high-priority
	// streams. FCFS reproduces the stock PROFIBUS queue (unbounded
	// FCFS stack queue); DM and EDF enable the paper's architecture
	// (AP priority queue + one-slot stack queue).
	Dispatcher ap.Policy
}

// SlaveConfig describes a responder.
type SlaveConfig struct {
	// Addr is the station address.
	Addr byte
	// TSDR is the station delay used for successful cycles; it is
	// clamped into the bus's [TSDRmin, TSDRmax].
	TSDR Ticks
}

// FaultModel injects response losses to exercise the retry path.
type FaultModel struct {
	// CycleFailProb is the probability that a single cycle attempt
	// receives no valid response (timeout after T_SL, then retry).
	CycleFailProb float64
}

// Config is a complete simulation setup.
type Config struct {
	// Bus carries the FDL timing parameters.
	Bus fdl.BusParams
	// TTR is the target token rotation time common to all masters.
	TTR Ticks
	// Masters in logical-ring order (ascending address enforced by
	// Validate).
	Masters []MasterConfig
	// Slaves are the responders referenced by streams.
	Slaves []SlaveConfig
	// Horizon is the simulated span in bit times.
	Horizon Ticks
	// Jitter selects the release-jitter realisation.
	Jitter JitterMode
	// Seed drives all randomness (jitter, faults).
	Seed int64
	// Faults optionally injects cycle failures.
	Faults FaultModel
	// GapFactor enables ring (GAP) maintenance: every GapFactor-th
	// token visit, a master with remaining token-holding time polls one
	// address of its GAP with an FDL-Status request (SD1 cycle) before
	// serving low-priority traffic, per DIN 19245's G parameter. Zero
	// disables GAP maintenance. The overhead is part of the paper's
	// footnote-7 τ term; core.Network.GapCycle models it analytically.
	GapFactor int
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if c.TTR <= 0 {
		return fmt.Errorf("profibus: TTR must be positive, got %d", c.TTR)
	}
	if len(c.Masters) == 0 {
		return errors.New("profibus: no masters")
	}
	if c.Horizon <= 0 {
		return errors.New("profibus: horizon must be positive")
	}
	if c.Faults.CycleFailProb < 0 || c.Faults.CycleFailProb >= 1 {
		return fmt.Errorf("profibus: CycleFailProb %g out of [0,1)", c.Faults.CycleFailProb)
	}
	if c.GapFactor < 0 {
		return fmt.Errorf("profibus: GapFactor must be non-negative, got %d", c.GapFactor)
	}
	slaves := map[byte]bool{}
	for _, s := range c.Slaves {
		if slaves[s.Addr] {
			return fmt.Errorf("profibus: duplicate slave address %d", s.Addr)
		}
		slaves[s.Addr] = true
	}
	seen := map[byte]bool{}
	var prev int = -1
	for _, m := range c.Masters {
		if seen[m.Addr] || slaves[m.Addr] {
			return fmt.Errorf("profibus: duplicate station address %d", m.Addr)
		}
		seen[m.Addr] = true
		if int(m.Addr) <= prev {
			return fmt.Errorf("profibus: masters must be in ascending address order")
		}
		prev = int(m.Addr)
		for _, st := range m.Streams {
			if st.Period <= 0 || st.Deadline <= 0 {
				return fmt.Errorf("profibus: stream %q needs positive period and deadline", st.Name)
			}
			if st.Jitter < 0 || st.Offset < 0 {
				return fmt.Errorf("profibus: stream %q has negative jitter/offset", st.Name)
			}
			if st.ReqBytes < 0 || st.ReqBytes > fdl.MaxSD2Data ||
				st.RespBytes < 0 || st.RespBytes > fdl.MaxSD2Data {
				return fmt.Errorf("profibus: stream %q payload out of range", st.Name)
			}
			if !slaves[st.Slave] {
				return fmt.Errorf("profibus: stream %q references unknown slave %d", st.Name, st.Slave)
			}
			for i, rel := range st.Releases {
				if rel < 0 {
					return fmt.Errorf("profibus: stream %q has negative explicit release", st.Name)
				}
				if i > 0 && rel < st.Releases[i-1] {
					return fmt.Errorf("profibus: stream %q explicit releases not sorted", st.Name)
				}
			}
		}
	}
	return nil
}

// CompletionRecord is one terminated message cycle in a stream's trace
// (StreamConfig.Trace).
type CompletionRecord struct {
	// Release is the request's nominal release instant.
	Release Ticks
	// Completed is the instant the cycle terminated: successful
	// completion, or abandonment of the last allowed retry.
	Completed Ticks
	// Failed marks a cycle abandoned after all retries (no response
	// was ever delivered).
	Failed bool
}

// StreamStats aggregates one stream's observations.
type StreamStats struct {
	Released  int64
	Completed int64
	Failed    int64 // cycles abandoned after all retries
	Missed    int64
	Censored  int64 // requests still pending at the horizon
	// WorstResponse is max(completion − nominal release); censored
	// requests contribute horizon − release as a lower bound.
	WorstResponse Ticks
	TotalResponse Ticks
	Retries       int64
	// Trace holds one record per terminated cycle (successful or
	// failed), in termination order. Populated only when the stream's
	// StreamConfig.Trace is set.
	Trace []CompletionRecord
}

// MeanResponse averages over completed cycles.
func (s StreamStats) MeanResponse() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalResponse) / float64(s.Completed)
}

// MasterStats aggregates one master's observations.
type MasterStats struct {
	PerStream []StreamStats
	// TokenArrivals counts token receptions.
	TokenArrivals int64
	// WorstTRR is the largest measured real token rotation time.
	WorstTRR Ticks
	// SumTRR allows mean rotation computation.
	SumTRR Ticks
	// TTHOverruns counts message cycles that started with positive
	// remaining token-holding time and finished beyond it.
	TTHOverruns int64
	// LateTokens counts arrivals with T_RR >= T_TR.
	LateTokens int64
	// HighCycles / LowCycles count executed message cycles.
	HighCycles int64
	LowCycles  int64
	// GapPolls counts FDL-Status maintenance cycles performed.
	GapPolls int64
}

// MeanTRR returns the average rotation time (excluding the first
// arrival, which measures the cold start).
func (m MasterStats) MeanTRR() float64 {
	if m.TokenArrivals <= 1 {
		return 0
	}
	return float64(m.SumTRR) / float64(m.TokenArrivals-1)
}

// Result is the outcome of one simulation.
type Result struct {
	PerMaster []MasterStats
	// Horizon echoes the simulated span.
	Horizon Ticks
	// TokenPasses counts token frames on the bus.
	TokenPasses int64
}

// AnyMiss reports whether any stream missed a deadline.
func (r Result) AnyMiss() bool {
	for _, m := range r.PerMaster {
		for _, s := range m.PerStream {
			if s.Missed > 0 {
				return true
			}
		}
	}
	return false
}

// WorstTRR returns the largest rotation observed at any master.
func (r Result) WorstTRR() Ticks {
	var w Ticks
	for _, m := range r.PerMaster {
		if m.WorstTRR > w {
			w = m.WorstTRR
		}
	}
	return w
}
