package fdl

import "testing"

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindSD1: "SD1", KindSD2: "SD2", KindSD3: "SD3",
		KindToken: "SD4/token", KindShortAck: "SC/ack", Kind(9): "Kind(9)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestFCHelpers(t *testing.T) {
	fc := ReqFC(FnSRDhigh, true, false)
	if fc&FCRequest == 0 {
		t.Error("ReqFC must set the request bit")
	}
	if fc&0x0F != FnSRDhigh {
		t.Errorf("function code = %#x, want %#x", fc&0x0F, FnSRDhigh)
	}
	if fc&FCFCB == 0 || fc&FCFCV != 0 {
		t.Error("FCB/FCV bits wrong")
	}
	if got := ReqFC(0xFF, false, true); got != FCRequest|FCFCV|0x0F {
		t.Errorf("ReqFC must mask the function code to 4 bits, got %#x", got)
	}
	rsp := RspFC(RspDH, StSlave)
	if rsp&FCRequest != 0 {
		t.Error("response FC must not set request bit")
	}
	if rsp != RspDH {
		t.Errorf("slave DH response = %#x, want %#x", rsp, RspDH)
	}
	if got := RspFC(RspOK, 0xFF); got != 0x30 {
		t.Errorf("RspFC must keep only station-type bits 5..4, got %#x", got)
	}
}
