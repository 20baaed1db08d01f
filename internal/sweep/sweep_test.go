package sweep

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/testkit"
)

var (
	pipeMu   sync.Mutex
	testPipe *core.Pipeline
)

// testRunner builds a Runner over the miniature testkit device and
// universe (calibrated once, shared across tests).
func testRunner(t *testing.T, workers int) Runner {
	t.Helper()
	pipeMu.Lock()
	defer pipeMu.Unlock()
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
	pipe := testPipe
	return Runner{
		Workers: workers,
		Names:   []string{"miniM", "miniMC", "miniC", "miniA"},
		Roster: func(label string) ([]fleet.DeviceSpec, error) {
			// Tests spell rosters as a bare device count over the one
			// test pipeline.
			count := int(label[0] - '0')
			return []fleet.DeviceSpec{{Pipe: pipe, Count: count}}, nil
		},
	}
}

func TestGridExpandOrderAndDefaults(t *testing.T) {
	g := Grid{
		Policies: []string{"fcfs", "ilp-smra"},
		SLOs:     []string{"off", "PREEMPT"},
		Rosters:  []string{"2"},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	// SLO varies fastest, policy above it; defaults fill the rest.
	wantSLO := []string{"off", "preempt", "off", "preempt"}
	wantPolicy := []string{"fcfs", "fcfs", "ilp-smra", "ilp-smra"}
	for i, c := range cells {
		if c.SLOName != wantSLO[i] || policyName(c.Policy) != wantPolicy[i] {
			t.Fatalf("cell %d = %v, want policy %s slo %s", i, c.Params(), wantPolicy[i], wantSLO[i])
		}
		if c.Engine != fleet.Modeled || c.Arrival != fleet.Poisson {
			t.Fatalf("cell %d defaults wrong: %v", i, c.Params())
		}
		if len(c.Params()) != len(ParamColumns) {
			t.Fatalf("params/columns mismatch: %v vs %v", c.Params(), ParamColumns)
		}
	}
}

func TestGridExpandRejectsBadAxes(t *testing.T) {
	cases := []Grid{
		{Policies: []string{"nope"}},
		{Engines: []string{"warp-speed"}},
		{Arrivals: []string{"trace"}},
		{SLOs: []string{"sometimes"}},
		{Rosters: []string{""}},
	}
	for i, g := range cases {
		if _, err := g.Expand(); err == nil {
			t.Errorf("case %d: bad grid %+v expanded without error", i, g)
		}
	}
}

// TestParseGridRejectsUnknownKeys pins cmd/sweep -config to the grid's
// own keys: a misspelled axis and a retired one are errors that name
// the key, rather than silently sweeping the default.
func TestParseGridRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ in, key string }{
		{`{"polices":["fcfs"]}`, "polices"},
		{`{"shards":[1,2,4]}`, "shards"},
	} {
		_, err := ParseGrid([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("ParseGrid(%s) error = %v, want one naming %q", tc.in, err, tc.key)
		}
	}
	g, err := ParseGrid([]byte(`{"policies":["fcfs"],"nc":3}`))
	if err != nil || len(g.Policies) != 1 || g.Policies[0] != "fcfs" || g.NC != 3 {
		t.Errorf("ParseGrid(valid grid) = %+v, %v", g, err)
	}
}

// smokeGrid is the 2×2 grid the CI smoke step runs: two policies under
// two SLO modes on the modeled engine, identical traffic everywhere.
func smokeGrid() Grid {
	return Grid{
		Policies:    []string{"fcfs", "ilp-smra"},
		SLOs:        []string{"off", "preempt"},
		Engines:     []string{"modeled"},
		Rosters:     []string{"2"},
		Jobs:        24,
		Rate:        1.2,
		LatencyFrac: 0.25,
		Deadline:    60_000,
		Seed:        0xABC,
	}
}

// TestSweepSmokeDeterministic runs the smoke grid twice over a parallel
// worker pool and requires byte-identical artifacts — worker scheduling
// must never leak into the output. This is the test CI's sweep smoke
// step runs in short mode.
func TestSweepSmokeDeterministic(t *testing.T) {
	r := testRunner(t, 4)
	a, err := r.Run(smokeGrid())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(smokeGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(a.Cells))
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteCSV(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("two identical sweeps differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", bufA.String(), bufB.String())
	}
	// The artifact parses back and survives the round trip.
	loaded, err := Load(bytes.NewReader(bufA.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := loaded.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), buf2.Bytes()) {
		t.Fatalf("CSV round trip not identical:\n%s\nvs\n%s", bufA.String(), buf2.String())
	}
	// Sanity on content: every cell completed all jobs somewhere — the
	// groups metric is positive, throughput is positive.
	for _, c := range loaded.Cells {
		if v, ok := loaded.metric(c, "throughput"); !ok || v <= 0 {
			t.Errorf("cell %v: throughput %v", c.Params, v)
		}
		if v, ok := loaded.metric(c, "groups"); !ok || v <= 0 {
			t.Errorf("cell %v: groups %v", c.Params, v)
		}
	}
}

// closedGrid is the control-surface grid: closed-loop traffic crossed
// with admission off/reject and an elastic roster.
func closedGrid() Grid {
	return Grid{
		Policies:    []string{"ilp-smra"},
		Engines:     []string{"modeled"},
		Rosters:     []string{"4"},
		Arrivals:    []string{"closed"},
		Admissions:  []string{"off", "reject:25000"},
		Autoscales:  []string{"off", "1:4"},
		Clients:     12,
		Requests:    4,
		Think:       5_000,
		LatencyFrac: 0.25,
		Deadline:    60_000,
		Seed:        0xC10,
	}
}

// TestSweepClosedLoopAxes runs a control-surface grid: closed-loop
// traffic crossed with admission off/reject and an elastic roster.
// Determinism must hold (repeat sweeps byte-identical), every closed
// cell must carry the submission ledger, and the admission ablation
// must be visible in the rejected column.
func TestSweepClosedLoopAxes(t *testing.T) {
	r := testRunner(t, 4)
	a, err := r.Run(closedGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(a.Cells))
	}
	b, err := r.Run(closedGrid())
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteCSV(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("two identical closed sweeps differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", bufA.String(), bufB.String())
	}
	loaded, err := Load(bytes.NewReader(bufA.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range loaded.Cells {
		sub, ok := loaded.metric(c, "submitted")
		if !ok || sub < 48 {
			t.Errorf("cell %v: submitted %v, want >= 48", c.Params, sub)
		}
		comp, _ := loaded.metric(c, "completed")
		rej, _ := loaded.metric(c, "rejected")
		aband, _ := loaded.metric(c, "abandoned")
		if sub != comp+rej+aband {
			t.Errorf("cell %v: conservation broken: %v != %v + %v + %v", c.Params, sub, comp, rej, aband)
		}
		// The admission axis must bite exactly on its cells.
		admission := c.Params[5]
		if rejecting := admission != "off"; (rej > 0) != rejecting {
			t.Errorf("cell %v: admission %q but rejected %v", c.Params, admission, rej)
		}
	}
}

func TestArtifactJSONRoundTrip(t *testing.T) {
	a := &Artifact{
		Params:  []string{"policy", "slo"},
		Metrics: []string{"throughput", "miss_rate"},
		Cells: []CellResult{
			{Params: []string{"fcfs", "off"}, Values: []float64{1.25, 0}},
			{Params: []string{"ilp-smra", "preempt"}, Values: []float64{1.5, 0.125}},
		},
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := loaded.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("JSON round trip differs:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestDeltaHandlesOneSidedCellsAndMetrics(t *testing.T) {
	base := &Artifact{
		Params:  []string{"policy"},
		Metrics: []string{"throughput", "old_metric"},
		Cells: []CellResult{
			{Params: []string{"fcfs"}, Values: []float64{1.0, 7}},
			{Params: []string{"serial"}, Values: []float64{0.5, 3}},
		},
	}
	cur := &Artifact{
		Params:  []string{"policy"},
		Metrics: []string{"throughput", "new_metric"},
		Cells: []CellResult{
			{Params: []string{"fcfs"}, Values: []float64{1.25, 9}},
			{Params: []string{"ilp"}, Values: []float64{1.5, 11}},
		},
	}
	var buf bytes.Buffer
	if err := Delta(base, cur, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"+25.0%",                 // fcfs throughput 1.0 -> 1.25
		"new cell",               // ilp only in cur
		"gone (was in baseline)", // serial only in base
		"fcfs old_metric",        // baseline-only metric still reported
		"-> gone",                // ... as gone
		"(new)",                  // cur-only metric marked new
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta output missing %q:\n%s", want, out)
		}
	}
}
