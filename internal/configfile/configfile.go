// Package configfile loads the JSON network and topology descriptions
// consumed by cmd/profisim, cmd/profisched and the served API. A
// description is built into the simulator configuration
// (profibus.Config), and the analytic model (core.Network) is derived
// from that configuration by profibus.Network, so both describe the
// same system. DecodeStrict reads every outside JSON input, here, in
// the campaign manifest and in served request bodies.
package configfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"profirt/internal/ap"
	"profirt/internal/core"
	"profirt/internal/fdl"
	"profirt/internal/profibus"
	"profirt/internal/timeunit"
)

// File is the on-disk JSON schema. All durations are in bit times,
// whatever the baud rate.
type File struct {
	// TTR is the target token rotation time.
	TTR timeunit.Ticks `json:"ttr"`
	// Bus optionally overrides the DIN timing parameters; omitted
	// fields keep the defaults of fdl.DefaultBusParams.
	Bus *BusJSON `json:"bus,omitempty"`
	// Horizon is the simulation span (default 1_000_000).
	Horizon timeunit.Ticks `json:"horizon,omitempty"`
	// Seed drives simulation randomness.
	Seed int64 `json:"seed,omitempty"`
	// Jitter selects the release realisation: "none", "random",
	// "adversarial" (default none).
	Jitter string `json:"jitter,omitempty"`
	// GapFactor enables ring maintenance: every GapFactor-th token
	// visit each master polls one GAP address (0 disables).
	GapFactor int `json:"gapFactor,omitempty"`
	// Masters in ascending address order.
	Masters []MasterJSON `json:"masters"`
	// Slaves referenced by the streams.
	Slaves []SlaveJSON `json:"slaves"`
}

// BusJSON mirrors fdl.BusParams with optional fields.
type BusJSON struct {
	TSDRMin  *timeunit.Ticks `json:"tsdrMin,omitempty"`
	TSDRMax  *timeunit.Ticks `json:"tsdrMax,omitempty"`
	TID1     *timeunit.Ticks `json:"tid1,omitempty"`
	TSL      *timeunit.Ticks `json:"tsl,omitempty"`
	MaxRetry *int            `json:"maxRetry,omitempty"`
}

// MasterJSON describes one master station.
type MasterJSON struct {
	Addr byte `json:"addr"`
	// Dispatcher is "fcfs" (default), "dm" or "edf".
	Dispatcher string       `json:"dispatcher,omitempty"`
	Streams    []StreamJSON `json:"streams"`
}

// StreamJSON describes one message stream.
type StreamJSON struct {
	Name      string         `json:"name"`
	Slave     byte           `json:"slave"`
	High      bool           `json:"high"`
	Period    timeunit.Ticks `json:"period"`
	Deadline  timeunit.Ticks `json:"deadline"`
	Jitter    timeunit.Ticks `json:"jitter,omitempty"`
	Offset    timeunit.Ticks `json:"offset,omitempty"`
	ReqBytes  int            `json:"reqBytes,omitempty"`
	RespBytes int            `json:"respBytes,omitempty"`
}

// SlaveJSON describes a responder.
type SlaveJSON struct {
	Addr byte           `json:"addr"`
	TSDR timeunit.Ticks `json:"tsdr,omitempty"`
}

// ParsePolicy maps a policy name to ap.Policy.
func ParsePolicy(s string) (ap.Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fcfs":
		return ap.FCFS, nil
	case "dm":
		return ap.DM, nil
	case "edf":
		return ap.EDF, nil
	default:
		return 0, fmt.Errorf("configfile: unknown dispatcher %q (want fcfs/dm/edf)", s)
	}
}

// ParseJitter maps a jitter-mode name to profibus.JitterMode.
func ParseJitter(s string) (profibus.JitterMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return profibus.JitterNone, nil
	case "random":
		return profibus.JitterRandom, nil
	case "adversarial":
		return profibus.JitterAdversarial, nil
	default:
		return 0, fmt.Errorf("configfile: unknown jitter mode %q (want none/random/adversarial)", s)
	}
}

// Build converts the parsed file into its simulator configuration and
// returns it with the analytic model derived from it by
// profibus.Network, validating both.
func (f *File) Build() (core.Network, profibus.Config, error) {
	bus := fdl.DefaultBusParams()
	if b := f.Bus; b != nil {
		if b.TSDRMin != nil {
			bus.TSDRmin = *b.TSDRMin
		}
		if b.TSDRMax != nil {
			bus.TSDRmax = *b.TSDRMax
		}
		if b.TID1 != nil {
			bus.TID1 = *b.TID1
		}
		if b.TSL != nil {
			bus.TSL = *b.TSL
		}
		if b.MaxRetry != nil {
			bus.MaxRetry = *b.MaxRetry
		}
	}
	jitter, err := ParseJitter(f.Jitter)
	if err != nil {
		return core.Network{}, profibus.Config{}, err
	}
	horizon := f.Horizon
	if horizon == 0 {
		horizon = 1_000_000
	}
	cfg := profibus.Config{
		Bus:       bus,
		TTR:       f.TTR,
		Horizon:   horizon,
		Seed:      f.Seed,
		Jitter:    jitter,
		GapFactor: f.GapFactor,
	}
	for _, mj := range f.Masters {
		pol, err := ParsePolicy(mj.Dispatcher)
		if err != nil {
			return core.Network{}, profibus.Config{}, err
		}
		mc := profibus.MasterConfig{Addr: mj.Addr, Dispatcher: pol}
		for _, sj := range mj.Streams {
			mc.Streams = append(mc.Streams, profibus.StreamConfig{
				Name:      sj.Name,
				Slave:     sj.Slave,
				High:      sj.High,
				Period:    sj.Period,
				Deadline:  sj.Deadline,
				Jitter:    sj.Jitter,
				Offset:    sj.Offset,
				ReqBytes:  sj.ReqBytes,
				RespBytes: sj.RespBytes,
			})
		}
		cfg.Masters = append(cfg.Masters, mc)
	}
	for _, sj := range f.Slaves {
		cfg.Slaves = append(cfg.Slaves, profibus.SlaveConfig{Addr: sj.Addr, TSDR: sj.TSDR})
	}
	if err := cfg.Validate(); err != nil {
		return core.Network{}, profibus.Config{}, err
	}
	net := profibus.Network(cfg)
	if err := net.Validate(); err != nil {
		return core.Network{}, profibus.Config{}, err
	}
	return net, cfg, nil
}

// Load reads and builds a network description from a JSON file.
func Load(path string) (core.Network, profibus.Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return core.Network{}, profibus.Config{}, err
	}
	return Parse(raw)
}

// Parse builds a network description from JSON bytes.
func Parse(raw []byte) (core.Network, profibus.Config, error) {
	f, err := Decode(raw)
	if err != nil {
		return core.Network{}, profibus.Config{}, err
	}
	return f.Build()
}

// Decode unmarshals a network description without building it, for
// callers that embed File in a larger schema (the campaign manifest
// inlines one File per swept network) and build later.
func Decode(raw []byte) (*File, error) {
	var f File
	if err := DecodeStrict(bytes.NewReader(raw), &f); err != nil {
		return nil, fmt.Errorf("configfile: %w", err)
	}
	return &f, nil
}

// DecodeStrict decodes the one JSON value r holds into v, the way
// every outside input is read: an unknown field is an error, and so is
// anything but whitespace after the value. A read error of r is
// wrapped, so errors.As still finds it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("after the JSON value: %w", err)
	default:
		return errors.New("trailing data after the JSON value")
	}
}
