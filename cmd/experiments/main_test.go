package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestQuickGolden pins the byte-exact output of `experiments -quick`,
// and of one full-size run: the published reproduction tables are
// regenerated from this CLI, so a refactor that silently changes
// numbers, ordering or markdown formatting must fail here. Regenerate
// intentionally with
//
//	go test ./cmd/experiments -run TestQuickGolden -update
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, tc := range []struct {
		name   string
		args   []string
		golden string
		// full marks a full-size run, which streams progress to stderr.
		full bool
	}{
		// The full quick suite at the default seed, default format.
		{"all-md", []string{"-quick", "-seed", "1"}, "quick_all_md.golden", false},
		// One experiment in each alternative format, to pin the plain
		// and CSV writers through the CLI path too.
		{"e12-plain", []string{"-quick", "-id", "E12", "-format", "plain"}, "quick_e12_plain.golden", false},
		{"e12-csv", []string{"-quick", "-id", "E12", "-format", "csv"}, "quick_e12_csv.golden", false},
		// The experiment index is part of the CLI surface as well.
		{"list", []string{"-list"}, "list.golden", false},
		// E1–E13 at full size: the grids researchers actually run.
		{"full-csv", []string{"-seed", "1", "-format", "csv"}, "full_csv.golden", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run(%v) = %d, stderr: %s", tc.args, code, stderr.String())
			}
			if stderr.Len() != 0 && !tc.full {
				t.Fatalf("unexpected stderr: %s", stderr.String())
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output differs from %s.\nIf the change is intentional, regenerate with -update.\n--- got ---\n%s", path, stdout.String())
			}
		})
	}
}

// TestProgressStreaming covers the non-quick row sink: full-size runs
// stream each finished table row to stderr while stdout still carries
// only the deterministic tables. E12 is the cheapest full-size
// experiment (pure analysis, no simulation), so the test runs it for
// real.
func TestProgressStreaming(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-id", "E12", "-trials", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), " row 5/5: ") {
		t.Errorf("expected the last E12 jitter row on stderr, got:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), " row ") {
		t.Error("streamed rows leaked onto stdout")
	}

	// Quick runs must stay silent: the golden test pins empty stderr,
	// and this pins the gating logic directly.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-quick", "-id", "E12"}, &stdout, &stderr); code != 0 {
		t.Fatalf("quick run = %d", code)
	}
	if stderr.Len() != 0 {
		t.Errorf("quick run wrote rows to stderr:\n%s", stderr.String())
	}
}

// TestHelpExitsZero pins the help exit code (flag.ErrHelp is a
// successful outcome, matching the pre-refactor ExitOnError behaviour).
func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-h) = %d, want 0", code)
	}
}

// TestUnknownID pins the CLI error contract.
func TestUnknownID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-id", "E99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-id E99) = %d, want 2", code)
	}
	if stderr.Len() == 0 {
		t.Error("expected a diagnostic on stderr")
	}
}
