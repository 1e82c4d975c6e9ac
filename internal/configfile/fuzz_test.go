package configfile

import (
	"strings"
	"testing"
)

// FuzzParse hardens the JSON front door: whatever bytes arrive, Parse
// must either return an error or hand back a pair that passes both
// validators (cmd/profisim and cmd/profisched trust that contract), and
// it must be deterministic. Run the full fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzParse$' ./internal/configfile
//
// (the checked-in corpus under testdata/fuzz plus the seeds below run
// as plain subtests in every ordinary `go test`).
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"ttr": 0}`))
	f.Add([]byte(`{"ttr": 2000, "masters": [], "slaves": []}`))
	f.Add([]byte(`{"ttr": 2000,
		"masters": [{"addr": 1, "dispatcher": "dm", "streams": [
			{"name": "s", "slave": 30, "high": true, "period": 20000, "deadline": 15000}]}],
		"slaves": [{"addr": 30, "tsdr": 30}]}`))
	f.Add([]byte(`{"ttr": 1, "jitter": "adversarial", "gapFactor": -3}`))
	f.Add([]byte(`{"ttr": 9223372036854775807, "horizon": -1,
		"bus": {"tid1": 0, "tsl": -5},
		"masters": [{"addr": 200, "streams": [
			{"name": "x", "slave": 200, "period": -1, "deadline": 0, "reqBytes": 999}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, cfg, err := Parse(data)
		net2, cfg2, err2 := Parse(data)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("Parse is nondeterministic: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		if verr := net.Validate(); verr != nil {
			t.Fatalf("Parse accepted a network its validator rejects: %v\ninput: %s", verr, data)
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("Parse accepted a sim config its validator rejects: %v\ninput: %s", verr, data)
		}
		if net.TTR != net2.TTR || len(net.Masters) != len(net2.Masters) ||
			cfg.Horizon != cfg2.Horizon || len(cfg.Masters) != len(cfg2.Masters) {
			t.Fatalf("Parse is nondeterministic on: %s", data)
		}
	})
}

// FuzzParseTopology extends the Parse contract to the multi-segment
// schema: no panics, and anything accepted passes the topology
// validator that Analyze and Simulate both apply.
func FuzzParseTopology(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"segments": [], "bridges": []}`))
	f.Add([]byte(`{"seed": 1, "horizon": 1000,
		"segments": [{"name": "A", "network": {"ttr": 100,
			"masters": [{"addr": 1, "streams": [
				{"name": "s", "slave": 3, "high": true, "period": 500, "deadline": 400}]}],
			"slaves": [{"addr": 3}]}}],
		"bridges": [{"name": "b", "from": "A", "to": "A", "relays": [
			{"name": "r", "fromStream": "s", "toStream": "s", "deadline": 1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		top, err := ParseTopology(data)
		if err != nil {
			return
		}
		if verr := top.Validate(); verr != nil {
			t.Fatalf("ParseTopology accepted a topology its validator rejects: %v\ninput: %s", verr, data)
		}
	})
}

// FuzzParsePolicy pins the dispatcher-name surface: only fcfs/dm/edf
// (any case, surrounding space) may parse.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"", "fcfs", "DM", " edf ", "rm", "deadline"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pol, err := ParsePolicy(s)
		if err != nil {
			return
		}
		canon := strings.ToLower(strings.TrimSpace(s))
		want := map[string]string{"": "FCFS", "fcfs": "FCFS", "dm": "DM", "edf": "EDF"}[canon]
		if want == "" || pol.String() != want {
			t.Fatalf("ParsePolicy(%q) accepted unexpected input as %v", s, pol)
		}
	})
}
