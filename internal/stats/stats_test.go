package stats

import (
	"strings"
	"testing"
)

func TestRatio(t *testing.T) {
	r := Ratio{K: 3, N: 4}
	if r.Value() != 0.75 {
		t.Errorf("Value = %g, want 0.75", r.Value())
	}
	if r.String() != "0.750" {
		t.Errorf("String = %q", r.String())
	}
	if (Ratio{}).Value() != 0 {
		t.Error("empty ratio should be 0")
	}
}

func TestTableRenderers(t *testing.T) {
	tb := NewTable("T1: demo", "name", "value")
	tb.Note = "a note"
	tb.AddRow("alpha", 1)
	tb.AddRow("beta", 2.5)
	tb.AddRow("gamma, delta", "x\"y\"")

	plain := tb.String()
	for _, want := range []string{"T1: demo", "a note", "alpha", "2.500"} {
		if !strings.Contains(plain, want) {
			t.Errorf("plain output missing %q:\n%s", want, plain)
		}
	}

	var md strings.Builder
	if err := tb.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "### T1: demo") {
		t.Errorf("markdown missing heading:\n%s", md.String())
	}
	if !strings.Contains(md.String(), "| alpha | 1 |") {
		t.Errorf("markdown missing row:\n%s", md.String())
	}

	var csv strings.Builder
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"gamma, delta","x""y"""`) {
		t.Errorf("csv escaping wrong:\n%s", csv.String())
	}

	if tb.NumRows() != 3 {
		t.Errorf("NumRows = %d, want 3", tb.NumRows())
	}
	row := tb.Row(0)
	row[0] = "mutated"
	if tb.Row(0)[0] != "alpha" {
		t.Error("Row must return a copy")
	}
}
