package profibus

import (
	"reflect"
	"testing"

	"profirt/internal/core"
)

// TestNetworkDerivation pins Network on a two-master ring with two
// retries, GAP maintenance and two low-priority streams of different
// payloads on the default bus (TSDRmax 60, TID1 37, TSL 100; 11 bits a
// character). C_hi is 2·(action + TSL) + action + TSDRmax + response +
// TID1:
//
//	valve  SD2 8-byte request 187, short ack 11:  574 + 295 = 869
//	alarm  SD1 request 66, SD2 2-byte reply 121:  332 + 284 = 616
//	probe  SD1 request 66, short ack 11:          332 + 174 = 506
//	log    SD2 30-byte request 429 (low):        1058 + 537 = 1595
//	diag   SD2 3-byte request 132 (low):          464 + 240 = 704
//
// TokenPass is the 3-character token (33) plus TID1: 70. GapPoll is
// the larger of an SD1 status cycle (66 + 60 + 66 + 37 = 229) and an
// SD1 timeout (66 + 100 = 166): 229.
func TestNetworkDerivation(t *testing.T) {
	cfg := testConfig(5_000,
		MasterConfig{Addr: 1, Streams: []StreamConfig{
			{Name: "valve", Slave: 40, High: true, Period: 20_000, Deadline: 15_000, Jitter: 500, ReqBytes: 8},
			{Name: "log", Slave: 40, Period: 40_000, Deadline: 40_000, ReqBytes: 30},
			{Name: "alarm", Slave: 40, High: true, Period: 10_000, Deadline: 4_000, RespBytes: 2},
			{Name: "diag", Slave: 40, Period: 40_000, Deadline: 40_000, ReqBytes: 3},
		}},
		MasterConfig{Addr: 5, Streams: []StreamConfig{
			{Name: "probe", Slave: 40, High: true, Period: 30_000, Deadline: 30_000},
		}},
	)
	cfg.Bus.MaxRetry = 2
	cfg.GapFactor = 3
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	want := core.Network{
		TTR: 5_000,
		Masters: []core.Master{
			{Name: "M1", High: []core.Stream{
				{Name: "valve", Ch: 869, D: 15_000, T: 20_000, J: 500},
				{Name: "alarm", Ch: 616, D: 4_000, T: 10_000},
			}, LongestLow: 1_595},
			{Name: "M5", High: []core.Stream{
				{Name: "probe", Ch: 506, D: 30_000, T: 30_000},
			}},
		},
		TokenPass: 70,
		GapPoll:   229,
	}
	if got := Network(cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("GapFactor 3:\n got %+v\nwant %+v", got, want)
	}

	cfg.GapFactor = 0
	want.GapPoll = 0
	if got := Network(cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("GapFactor 0:\n got %+v\nwant %+v", got, want)
	}
}
