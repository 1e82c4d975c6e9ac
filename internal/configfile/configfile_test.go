package configfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/profibus"
)

const sample = `{
  "ttr": 2000,
  "bus": {"maxRetry": 0, "tsdrMax": 50},
  "horizon": 500000,
  "jitter": "adversarial",
  "masters": [
    {
      "addr": 2,
      "dispatcher": "dm",
      "streams": [
        {"name": "loop", "slave": 20, "high": true, "period": 10000, "deadline": 8000, "reqBytes": 2, "respBytes": 4},
        {"name": "bg", "slave": 20, "high": false, "period": 50000, "deadline": 50000, "reqBytes": 8, "respBytes": 8}
      ]
    },
    {"addr": 3, "streams": [
      {"name": "poll", "slave": 20, "high": true, "period": 20000, "deadline": 15000}
    ]}
  ],
  "slaves": [{"addr": 20, "tsdr": 30}]
}`

func TestParseSample(t *testing.T) {
	net, cfg, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TTR != 2000 || net.TTR != 2000 {
		t.Error("TTR not propagated")
	}
	if cfg.Bus.MaxRetry != 0 || cfg.Bus.TSDRmax != 50 {
		t.Error("bus overrides not applied")
	}
	if cfg.Bus.TSDRmin != 11 {
		t.Error("non-overridden bus fields must keep defaults")
	}
	if cfg.Jitter != profibus.JitterAdversarial {
		t.Error("jitter mode wrong")
	}
	if len(cfg.Masters) != 2 || cfg.Masters[0].Dispatcher != ap.DM || cfg.Masters[1].Dispatcher != ap.FCFS {
		t.Error("masters/dispatchers wrong")
	}
	if net.Masters[0].NH() != 1 {
		t.Errorf("high streams = %d, want 1", net.Masters[0].NH())
	}
	if net.Masters[0].LongestLow == 0 {
		t.Error("low-priority stream must set LongestLow")
	}
	if net.Masters[1].LongestLow != 0 {
		t.Error("master 3 has no low traffic")
	}
	// Ch computed from frames under the overridden bus.
	want := cfg.Masters[0].Streams[0].WorstCycleTicks(cfg.Bus)
	if net.Masters[0].High[0].Ch != want {
		t.Errorf("Ch = %d, want %d", net.Masters[0].High[0].Ch, want)
	}
	// The built pair actually simulates.
	if _, err := profibus.Simulate(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must error")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown field":   `{"ttr": 1, "bogus": true, "masters": [], "slaves": []}`,
		"bad dispatcher":  `{"ttr": 1000, "masters": [{"addr": 1, "dispatcher": "lifo", "streams": []}], "slaves": []}`,
		"bad jitter":      `{"ttr": 1000, "jitter": "chaotic", "masters": [{"addr": 1, "streams": []}], "slaves": []}`,
		"invalid network": `{"ttr": 0, "masters": [{"addr": 1, "streams": []}], "slaves": []}`,
		"unknown slave": `{"ttr": 1000, "masters": [{"addr": 1, "streams": [
			{"name": "x", "slave": 9, "high": true, "period": 100, "deadline": 100}]}], "slaves": []}`,
	}
	for name, raw := range cases {
		if _, _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestParseRejectsUnreadBusFields pins the bus schema to what timing
// reads: durations are bit times, so no baud rate enters a bound or a
// simulation, and no SDN frame is ever sent, so nothing reads TID2. A
// body that sets either fails as an unknown field rather than being
// accepted and ignored.
func TestParseRejectsUnreadBusFields(t *testing.T) {
	body := func(bus string) []byte {
		return []byte(`{"ttr": 2000, "bus": {` + bus + `}, "masters": [{"addr": 1, "streams": [
			{"name": "s", "slave": 30, "high": true, "period": 20000, "deadline": 15000}]}],
			"slaves": [{"addr": 30}]}`)
	}
	if _, _, err := Parse(body(`"tid1": 40`)); err != nil {
		t.Fatalf("control body with a known bus field: %v", err)
	}
	for _, field := range []string{"baudRate", "tid2"} {
		_, _, err := Parse(body(`"` + field + `": 60`))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`"`) {
			t.Errorf("bus.%s: err = %v, want an unknown-field error", field, err)
		}
	}
}

func TestParsePolicyAndJitter(t *testing.T) {
	for s, want := range map[string]ap.Policy{"": ap.FCFS, "FCFS": ap.FCFS, "Dm": ap.DM, "edf": ap.EDF} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	for s, want := range map[string]profibus.JitterMode{
		"": profibus.JitterNone, "none": profibus.JitterNone,
		"RANDOM": profibus.JitterRandom, "adversarial": profibus.JitterAdversarial,
	} {
		got, err := ParseJitter(s)
		if err != nil || got != want {
			t.Errorf("ParseJitter(%q) = %v, %v", s, got, err)
		}
	}
}

// TestParseRejectsTrailingData: a valid description followed by a
// second value or stray text is an error, not a silently parsed first
// value. Trailing whitespace stays allowed.
func TestParseRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{` {"ttr": "garbage"} trailing junk`, ` xyz`, `}`, ` []`} {
		if _, _, err := Parse([]byte(sample + tail)); err == nil {
			t.Errorf("Parse accepted a network followed by %q", tail)
		}
		if _, err := ParseTopology([]byte(topologyJSON + tail)); err == nil {
			t.Errorf("ParseTopology accepted a topology followed by %q", tail)
		}
	}
	if _, _, err := Parse([]byte(sample + " \n\t")); err != nil {
		t.Errorf("Parse rejected trailing whitespace: %v", err)
	}
	if _, err := ParseTopology([]byte(topologyJSON + "\n")); err != nil {
		t.Errorf("ParseTopology rejected a trailing newline: %v", err)
	}
}
