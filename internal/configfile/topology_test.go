package configfile

import (
	"reflect"
	"strings"
	"testing"

	"profirt/internal/topology"
)

const topologyJSON = `{
	"seed": 7,
	"horizon": 400000,
	"segments": [
		{"name": "west", "network": {
			"ttr": 2000,
			"masters": [{"addr": 1, "dispatcher": "dm", "streams": [
				{"name": "sensor", "slave": 30, "high": true, "period": 20000, "deadline": 20000, "reqBytes": 4, "respBytes": 4}
			]}],
			"slaves": [{"addr": 30, "tsdr": 30}]
		}},
		{"name": "east", "network": {
			"ttr": 2000,
			"masters": [{"addr": 1, "dispatcher": "edf", "streams": [
				{"name": "relayin", "slave": 30, "high": true, "period": 20000, "deadline": 30000, "reqBytes": 4, "respBytes": 4}
			]}],
			"slaves": [{"addr": 30, "tsdr": 30}]
		}}
	],
	"bridges": [
		{"name": "wb", "from": "west", "to": "east", "latency": 500, "relays": [
			{"name": "r", "fromStream": "sensor", "toStream": "relayin", "deadline": 30000}
		]}
	]
}`

func TestParseTopology(t *testing.T) {
	top, err := ParseTopology([]byte(topologyJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(top.Segments))
	}
	if top.Seed != 7 {
		t.Errorf("seed = %d, want 7", top.Seed)
	}
	for _, s := range top.Segments {
		if s.Cfg.Horizon != 400_000 {
			t.Errorf("segment %q horizon = %v, want the top-level override 400000", s.Name, s.Cfg.Horizon)
		}
	}
	if got := top.Segments[1].Cfg.Masters[0].Dispatcher.String(); got != "EDF" {
		t.Errorf("east dispatcher = %v, want EDF", got)
	}
	want := []topology.Bridge{{Name: "wb", From: "west", To: "east", Latency: 500, Relays: []topology.Relay{
		{Name: "r", FromStream: "sensor", ToStream: "relayin", Deadline: 30_000},
	}}}
	if !reflect.DeepEqual(top.Bridges, want) {
		t.Errorf("bridges = %+v, want %+v", top.Bridges, want)
	}
}

func TestParseTopologyRejects(t *testing.T) {
	bad := strings.Replace(topologyJSON, `"to": "east"`, `"to": "nowhere"`, 1)
	if _, err := ParseTopology([]byte(bad)); err == nil ||
		!strings.Contains(err.Error(), "unknown segment") {
		t.Errorf("unknown segment not rejected: %v", err)
	}
	bad = strings.Replace(topologyJSON, `"seed": 7`, `"sneed": 7`, 1)
	if _, err := ParseTopology([]byte(bad)); err == nil {
		t.Error("unknown top-level field not rejected")
	}
	bad = strings.Replace(topologyJSON, `"ttr": 2000,`, `"ttr": 0,`, 1)
	if _, err := ParseTopology([]byte(bad)); err == nil ||
		!strings.Contains(err.Error(), "segment") {
		t.Errorf("invalid embedded network not attributed to its segment: %v", err)
	}
}
