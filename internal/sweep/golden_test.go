package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites testdata/sweep.golden:
//
//	go test ./internal/sweep -run SweepGolden -update
//
// Run it only when a sweep metric is meant to change.
var update = flag.Bool("update", false, "rewrite testdata/sweep.golden")

// TestSweepGolden locks every metric column Metrics projects: the CSV
// of the open-loop smoke grid followed by the closed-loop control grid,
// both run through the testkit Runner.
func TestSweepGolden(t *testing.T) {
	r := testRunner(t, 2)
	var buf bytes.Buffer
	for _, g := range []Grid{smokeGrid(), closedGrid()} {
		art, err := r.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := art.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "sweep.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to capture): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("diverged from %s:\n--- want ---\n%s--- got ---\n%s", path, want, buf.Bytes())
	}
}
