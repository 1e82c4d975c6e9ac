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
