package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

// update rewrites testdata/fleet_chaos.golden:
//
//	go test ./internal/experiments -run FleetChaosGolden -update
//
// Run it only when the scenario's output is meant to change.
var update = flag.Bool("update", false, "rewrite testdata/fleet_chaos.golden")

var (
	testPipeMu sync.Mutex
	testPipe   *core.Pipeline
)

// testSuite builds a Suite over the miniature testkit device and
// universe (calibrated once, shared across tests). Only scenarios that
// draw their application names from the pipeline — not the full
// workload list — can run on it; FleetChaos is written that way so the
// failure-injection path has a fast deterministic smoke test.
func testSuite(t *testing.T) *Suite {
	t.Helper()
	testPipeMu.Lock()
	defer testPipeMu.Unlock()
	if testPipe == nil {
		p, err := core.New(testkit.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Init(testkit.Universe()); err != nil {
			t.Fatal(err)
		}
		testPipe = p
	}
	return &Suite{P: testPipe, Seed: DefaultSeed}
}

// TestFleetChaosDeterministic reruns the failure-injection scenario
// and demands byte-identical artifacts, then checks the physics the
// scenario exists to demonstrate: a crash evicts in-flight work and a
// planned drain does not, so the drain column never pays the fail
// column's eviction count or tail wait.
func TestFleetChaosDeterministic(t *testing.T) {
	s := testSuite(t)
	a, err := s.FleetChaos()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.FleetChaos()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("FleetChaos not deterministic:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	for _, col := range []string{"fcfs-fail", "ilp-fail", "ilp-fail-autoscale", "ilp-drain"} {
		if got := a.MustValue("restores", col); got != 2 {
			t.Errorf("%s restores = %.0f, want 2", col, got)
		}
	}
	if got := a.MustValue("chaos evictions", "ilp-drain"); got != 0 {
		t.Errorf("drain evicted %.0f flights; drains must retire in-flight work", got)
	}
	if got := a.MustValue("chaos evictions", "ilp-fail"); got == 0 {
		t.Errorf("fail wave evicted nothing; outage cycle misses all in-flight work")
	}
	drain, fail := a.MustValue("wait p99 (kcyc)", "ilp-drain"), a.MustValue("wait p99 (kcyc)", "ilp-fail")
	if drain > fail {
		t.Errorf("drain wait p99 %.1f kcyc > fail wait p99 %.1f kcyc; planned drain should not beat a crash's tail", drain, fail)
	}
}

// TestFleetChaosGolden locks the FleetChaos artifact on the testkit
// suite byte for byte: every row reads a run's aggregated job records,
// so the golden pins what the artifact table renders from them.
func TestFleetChaosGolden(t *testing.T) {
	a, err := testSuite(t).FleetChaos()
	if err != nil {
		t.Fatal(err)
	}
	got := a.String()
	path := filepath.Join("testdata", "fleet_chaos.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to capture): %v", err)
	}
	if got != string(want) {
		t.Errorf("diverged from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}
