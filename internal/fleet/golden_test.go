package fleet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// update regenerates the Cycle-engine golden files. The goldens were
// captured from the pre-indexed-event-core engine (PR 4 state) and lock
// the Cycle engine's observable behavior — dispatch decisions, event
// ordering, eviction traces, all cycle accounting — across rewrites of
// the event loop's data structures: run
//
//	go test ./internal/fleet -run CycleEngineGoldens -update
//
// only when the Cycle engine's behavior is *meant* to change.
var update = flag.Bool("update", false, "rewrite the Cycle-engine golden files")

// goldenCases mirrors the three experiments scenarios (FleetOnline,
// FleetHetero, FleetSLO) scaled down to the testkit universe: the same
// roster shapes, policies and SLO modes, small enough that all three
// run in seconds.
func goldenCases(t *testing.T) []struct {
	name string
	cfg  func() Config
	arr  []Arrival
} {
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	poisson := func(jobs int, rate float64, seed uint64) []Arrival {
		arr, err := ArrivalConfig{Kind: Poisson, Jobs: jobs, Rate: rate, Seed: seed}.Generate(testNames())
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	slo, err := ArrivalConfig{
		Kind: Poisson, Jobs: 30, Rate: 1.5,
		LatencyFrac: 0.25, Deadline: 60_000, Seed: 0x510,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		cfg  func() Config
		arr  []Arrival
	}{
		{
			// FleetOnline shape: homogeneous roster, saturating Poisson
			// traffic, the windowed-ILP dispatcher.
			name: "online",
			cfg: func() Config {
				return Config{Devices: homo(small, 4), NC: 2, Policy: sched.ILPSMRA}
			},
			arr: poisson(24, 1.0, 0xF1EE7),
		},
		{
			// FleetHetero shape: mixed generations, placement-aware
			// dispatch with per-type matrices.
			name: "hetero",
			cfg: func() Config {
				return Config{
					Devices: []DeviceSpec{{Pipe: small, Count: 1}, {Pipe: tiny, Count: 2}},
					NC:      2,
					Policy:  sched.ILPSMRA,
				}
			},
			arr: poisson(20, 0.8, 0xE7E0),
		},
		{
			// FleetSLO shape: latency-class arrivals under preemptive
			// SLO dispatch (the eviction trace is part of the golden).
			name: "slo",
			cfg: func() Config {
				return Config{
					Devices: homo(small, 2), NC: 2, Policy: sched.ILPSMRA,
					SLO: SLOConfig{Enabled: true, Preempt: true},
				}
			},
			arr: slo,
		},
	}
}

// goldenSampleEvery is the sampling interval the golden runs enable.
// The runs predate the collector, so passing them with sampling ON is
// itself an assertion: the collector observes without perturbing a
// single dispatch decision or completion cycle.
const goldenSampleEvery = 20_000

// compareGolden asserts got matches the named golden file byte for
// byte, or rewrites it under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("diverged from %s:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// TestCycleEngineGoldens asserts the Cycle engine reproduces the
// pre-rewrite dispatcher byte for byte on the three scenario shapes:
// the summary (throughput, utilization, all latency percentiles) and
// the eviction trace together pin every observable decision the event
// loop makes. The runs sample a time series on the side, locked by its
// own golden — and since the summary goldens predate the collector,
// their passing doubles as proof the sampler is purely passive.
func TestCycleEngineGoldens(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.SampleEvery = goldenSampleEvery
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(tc.arr)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, "cycle_"+tc.name+".golden", res.Summary()+res.EvictionTrace())
			if res.Series == nil {
				t.Fatal("SampleEvery set but Result.Series is nil")
			}
			var csv strings.Builder
			if err := res.Series.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, "timeseries_"+tc.name+".golden", csv.String())
		})
	}
}

// TestModeledOpenGolden locks the Modeled engine's observable output on
// open-loop traffic: a heterogeneous roster under preemptive SLO
// dispatch, with the summary, eviction trace and time series. Regenerate
// with
//
//	go test ./internal/fleet -run ModeledOpenGolden -update
//
// only when the Modeled engine's behavior is meant to change.
func TestModeledOpenGolden(t *testing.T) {
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	arr, err := ArrivalConfig{
		Kind: Poisson, Jobs: 48, Rate: 1.5,
		LatencyFrac: 0.25, Deadline: 60_000, Seed: 0x54A8D,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Devices:     []DeviceSpec{{Pipe: small, Count: 2}, {Pipe: tiny, Count: 2}},
		NC:          2,
		Policy:      sched.ILPSMRA,
		Engine:      Modeled,
		SLO:         SLOConfig{Enabled: true, Preempt: true},
		SampleEvery: goldenSampleEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "modeled_open.golden", res.Summary()+res.EvictionTrace())
	var csv strings.Builder
	if err := res.Series.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "timeseries_modeled_open.golden", csv.String())
}

// preemptChaosRun runs the preemption-under-chaos scenario on one
// engine: open-loop Poisson traffic with a quarter latency jobs on a
// tight deadline, preemptive SLO dispatch, and a chaos trace that fails
// a device, drains another and restores both mid-run. Preemption scans
// the running flights for the earliest free device, and chaos changes
// which of them count, so this scenario locks that scan's inputs.
func preemptChaosRun(t *testing.T, engine EngineMode) Result {
	t.Helper()
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	arr, err := ArrivalConfig{
		Kind: Poisson, Jobs: 40, Rate: 1.5,
		LatencyFrac: 0.25, Deadline: 30_000, Seed: 0xC4A05,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Devices: []DeviceSpec{{Pipe: small, Count: 2}, {Pipe: tiny, Count: 2}},
		NC:      2,
		Policy:  sched.ILPSMRA,
		Engine:  engine,
		SLO:     SLOConfig{Enabled: true, Preempt: true},
		Chaos: ChaosConfig{Enabled: true, Trace: []ChaosEvent{
			{Cycle: 40_000, Device: 0, Kind: ChaosFail},
			{Cycle: 60_000, Device: 2, Kind: ChaosDrain},
			{Cycle: 120_000, Device: 0, Kind: ChaosRestore},
			{Cycle: 150_000, Device: 2, Kind: ChaosRestore},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPreemptChaosGolden locks SLO preemption and chaos together, on
// the Modeled and the Cycle engine: the summary and the eviction trace,
// which must hold at least one preemption and one chaos eviction. Cycle
// flights resolve after dispatch, so that run also covers a flight's
// free-time estimate changing while it runs. Every returned record must
// hold its exported fields only: the event loop keeps its per-job state
// in the record while it runs, an evicted job's checkpoint progress
// included. Regenerate with
//
//	go test ./internal/fleet -run PreemptChaosGolden -update
//
// only when preemption or chaos behavior is meant to change.
func TestPreemptChaosGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine EngineMode
	}{
		{"modeled", Modeled},
		{"cycle", Cycle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := preemptChaosRun(t, tc.engine)
			preempt, chaos := 0, 0
			for _, e := range res.Evictions {
				if e.TriggerJob == chaosTriggerID {
					chaos++
				} else {
					preempt++
				}
			}
			if preempt == 0 || chaos == 0 {
				t.Errorf("evictions: %d preemption, %d chaos; want at least one of each", preempt, chaos)
			}
			for _, j := range res.Jobs {
				exported := JobRecord{
					ID: j.ID, Name: j.Name, Class: j.Class, SLO: j.SLO, Deadline: j.Deadline,
					Arrival: j.Arrival, Dispatch: j.Dispatch, Complete: j.Complete, Device: j.Device,
					Evictions: j.Evictions, Outcome: j.Outcome, Attempts: j.Attempts,
				}
				if j != exported {
					t.Fatalf("job %d returns loop state: %+v", j.ID, j)
				}
			}
			compareGolden(t, "preempt_chaos_"+tc.name+".golden", res.Summary()+res.EvictionTrace())
		})
	}
}
