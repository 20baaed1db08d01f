package fleet

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
)

// chaosCase is the canonical failure-injection scenario: the closed
// case (every control surface live) plus an explicit outage wave — two
// devices of different types crash mid-run, a third is drained, and
// all three come back before the run ends. Cycles sit well inside the
// case's ~550k-cycle makespan so every kind actually fires.
func chaosCase(t *testing.T) Config {
	t.Helper()
	cfg := closedCase(t)
	cfg.Chaos = ChaosConfig{Enabled: true, Trace: []ChaosEvent{
		{Cycle: 60_000, Device: 0, Kind: ChaosFail},
		{Cycle: 60_000, Device: 4, Kind: ChaosFail},
		{Cycle: 120_000, Device: 1, Kind: ChaosDrain},
		{Cycle: 250_000, Device: 0, Kind: ChaosRestore},
		{Cycle: 250_000, Device: 4, Kind: ChaosRestore},
		{Cycle: 300_000, Device: 1, Kind: ChaosRestore},
	}}
	return cfg
}

// runChaosCase executes the scenario and renders the full observable
// output, mirroring runClosedCase.
func runChaosCase(t *testing.T) (Result, string, string) {
	t.Helper()
	f, err := New(chaosCase(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := res.Series.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return res, res.Summary() + res.EvictionTrace(), csv.String()
}

// TestChaosGolden locks the failure-injection path's observable output
// — summary with the chaos counter line, the eviction trace's
// trigger=chaos records, and the time series with the failed/draining
// gauge columns. Regenerate with
//
//	go test ./internal/fleet -run ChaosGolden -update
//
// only when chaos behavior is meant to change.
func TestChaosGolden(t *testing.T) {
	res, summary, csv := runChaosCase(t)
	if !res.Chaos {
		t.Fatal("Result.Chaos = false")
	}
	if res.Failures != 2 || res.Drains != 1 || res.Restores != 3 {
		t.Fatalf("failures/drains/restores = %d/%d/%d, want 2/1/3", res.Failures, res.Drains, res.Restores)
	}
	compareGolden(t, "chaos.golden", summary)
	compareGolden(t, "timeseries_chaos.golden", csv)
}

// TestChaosDeterminism mirrors TestClosedDeterminism with the outage
// wave live: repeated runs must produce byte-identical summaries,
// eviction traces and series. Runs under -race in CI.
func TestChaosDeterminism(t *testing.T) {
	_, firstSum, firstCSV := runChaosCase(t)
	for run := 1; run < 3; run++ {
		_, sum, csv := runChaosCase(t)
		if sum != firstSum {
			t.Fatalf("run %d summary diverged from run 0:\n--- first ---\n%s--- again ---\n%s", run, firstSum, sum)
		}
		if csv != firstCSV {
			t.Fatalf("run %d time series diverged from run 0", run)
		}
	}
}

// TestChaosConservation is the property test behind failure injection:
// across engines and seeds, with a generated failure
// schedule constantly killing and restoring devices, every submitted
// attempt still ends in exactly one of completed, rejected or
// abandoned — a crash may strand progress, never a job.
func TestChaosConservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine EngineMode
		policy sched.Policy
	}{
		{"cycle-fcfs", Cycle, sched.FCFS},
		{"cycle-ilp", Cycle, sched.ILPSMRA},
		{"modeled", Modeled, sched.ILPSMRA},
	} {
		for _, seed := range []uint64{1, 2, 0xDEAD} {
			cfg := closedCase(t)
			cfg.Engine = tc.engine
			cfg.Policy = tc.policy
			cfg.Closed.Seed = seed
			cfg.Chaos = ChaosConfig{Enabled: true, MTBF: 150_000, MTTR: 50_000, Seed: seed}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			label := tc.name
			checkConservation(t, label, res, cfg.Closed.Clients*cfg.Closed.Requests)
			// The run ends when the traffic drains, which may be
			// mid-outage: restores bound failures from below only.
			if res.Failures == 0 || res.Restores > res.Failures {
				t.Errorf("%s seed %d: failures=%d restores=%d; want failures > 0 and restores <= failures",
					label, seed, res.Failures, res.Restores)
			}
		}
	}
}

// TestChaosDrainRetires pins the drain contract against the fail path
// on identical traffic: a drained device's in-flight group retires
// normally (no evictions from the drain), while the same schedule
// spelled as failures evicts whatever was on the devices.
func TestChaosDrainRetires(t *testing.T) {
	run := func(kind ChaosKind) Result {
		cfg := closedCase(t)
		cfg.Chaos = ChaosConfig{Enabled: true, Trace: []ChaosEvent{
			{Cycle: 60_000, Device: 0, Kind: kind},
			{Cycle: 60_000, Device: 1, Kind: kind},
			{Cycle: 250_000, Device: 0, Kind: ChaosRestore},
			{Cycle: 250_000, Device: 1, Kind: ChaosRestore},
		}}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	drain, fail := run(ChaosDrain), run(ChaosFail)
	if drain.ChaosEvictions != 0 {
		t.Errorf("drain evicted %d flights; drains must retire in-flight work", drain.ChaosEvictions)
	}
	if fail.ChaosEvictions == 0 {
		t.Error("fail evicted nothing; outage cycle misses all in-flight work")
	}
	if drain.Drains != 2 || fail.Failures != 2 {
		t.Errorf("drains=%d failures=%d, want 2 each", drain.Drains, fail.Failures)
	}
}

// TestChaosDeadRosterErrors pins the stall contract: once every device
// has failed (or drained) with no restore scheduled, the queued jobs can
// never run, and Run must say so with an error that counts them —
// never hang, never return a short Result. It covers the Cycle engine,
// and the Modeled engine with and without the autoscaler.
func TestChaosDeadRosterErrors(t *testing.T) {
	p := testPipeline(t)
	arr := testArrivals(t, 16, 0xDEAD)
	// Kill the roster after a few arrivals, so in-flight work meets the
	// outage and later arrivals queue behind it.
	at := arr[3].Cycle
	outstanding := regexp.MustCompile(`(\d+) jobs outstanding`)
	for _, kind := range []ChaosKind{ChaosFail, ChaosDrain} {
		for _, tc := range []struct {
			engine EngineMode
			scale  bool
		}{{Cycle, false}, {Modeled, false}, {Modeled, true}} {
			label := fmt.Sprintf("%v/%v/autoscale=%v", kind, tc.engine, tc.scale)
			f, err := New(Config{
				Devices: homo(p, 2), NC: 2, Policy: sched.ILPSMRA,
				Engine: tc.engine,
				Chaos: ChaosConfig{Enabled: true, Trace: []ChaosEvent{
					{Cycle: at, Device: 0, Kind: kind},
					{Cycle: at, Device: 1, Kind: kind},
				}},
				// An armed autoscale tick must not keep the dead roster
				// ticking forever.
				Autoscale: AutoscaleConfig{Enabled: tc.scale, Min: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(arr)
			if err == nil {
				t.Fatalf("%s: Run returned no error with the whole roster down", label)
			}
			m := outstanding.FindStringSubmatch(err.Error())
			if m == nil || m[1] == "0" {
				t.Errorf("%s: error %q does not count the outstanding jobs", label, err)
			}
			if res.Jobs != nil || res.Devices != 0 {
				t.Errorf("%s: Run returned a partial result (%d job records) alongside its error", label, len(res.Jobs))
			}
		}
	}
}

// TestChaosValidation covers the chaos config surface's validation.
func TestChaosValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		break_ func(*Config)
	}{
		{"device out of range", func(c *Config) {
			c.Chaos.Trace = []ChaosEvent{{Cycle: 1, Device: 99, Kind: ChaosFail}}
		}},
		{"negative device", func(c *Config) {
			c.Chaos.Trace = []ChaosEvent{{Cycle: 1, Device: -1, Kind: ChaosFail}}
		}},
		{"unknown kind", func(c *Config) {
			c.Chaos.Trace = []ChaosEvent{{Cycle: 1, Device: 0, Kind: ChaosKind(9)}}
		}},
		{"trace and generator", func(c *Config) { c.Chaos.MTBF, c.Chaos.MTTR = 100, 100 }},
		{"neither trace nor generator", func(c *Config) { c.Chaos.Trace = nil }},
		{"mtbf without mttr", func(c *Config) { c.Chaos.Trace = nil; c.Chaos.MTBF = 100 }},
	} {
		cfg := chaosCase(t)
		tc.break_(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	// The generator spelling with sane parameters must be accepted.
	cfg := chaosCase(t)
	cfg.Chaos = ChaosConfig{Enabled: true, MTBF: 100_000, MTTR: 20_000}
	if _, err := New(cfg); err != nil {
		t.Errorf("generator config rejected: %v", err)
	}
}

// TestParseChaosSpec covers the sweep-axis spelling: off, generator
// and trace forms, and the malformed variants in between.
func TestParseChaosSpec(t *testing.T) {
	for _, tc := range []struct {
		in      string
		enabled bool
		wantErr bool
	}{
		{"", false, false},
		{"off", false, false},
		{"OFF", false, false},
		{"mtbf:100000:20000", true, false},
		{"MTBF:100000:20000:500000", true, false},
		{"mtbf:0:100", false, true},
		{"mtbf:100", false, true},
		{"mtbf:100:200:0", false, true},
		{"fail@60000:0,restore@250000:0", true, false},
		{"explode@5:0", false, true},
	} {
		cfg, err := ParseChaosSpec(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseChaosSpec(%q) error = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && cfg.Enabled != tc.enabled {
			t.Errorf("ParseChaosSpec(%q).Enabled = %v, want %v", tc.in, cfg.Enabled, tc.enabled)
		}
	}
	// Trace specs round-trip through the canonical rendering.
	spec := "fail@60000:0,drain@120000:1,restore@250000:0"
	cfg, err := ParseChaosSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatChaos(cfg.Trace); got != spec {
		t.Errorf("FormatChaos round-trip = %q, want %q", got, spec)
	}
}

// referenceChaos materializes a generated chaos schedule whole, the
// way the event loop used to before it drew outages lazily: every
// device's whole windows inside the horizon, stably sorted by (cycle,
// device). It is the oracle for chaosGen.
func referenceChaos(ch ChaosConfig, devices int) []ChaosEvent {
	var out []ChaosEvent
	for d := 0; d < devices; d++ {
		stream := rng.NewStream(rng.Hash3(ch.Seed, uint64(d), chaosSalt))
		t := 0.0
		for {
			t += expo(stream) * ch.MTBF
			failAt := uint64(t)
			t += expo(stream) * ch.MTTR
			restoreAt := uint64(t)
			if failAt >= ch.Horizon || restoreAt >= ch.Horizon {
				break
			}
			out = append(out,
				ChaosEvent{Cycle: failAt, Device: d, Kind: ChaosFail},
				ChaosEvent{Cycle: restoreAt, Device: d, Kind: ChaosRestore})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// TestChaosGenMatchesReference drains the lazy generator through the
// control block's chaos queue and requires exactly the materialized
// schedule, on several seeds and rosters. The sub-cycle cases put many
// fails, restores and devices on one cycle, so the (cycle, device)
// merge and a device's fail-before-restore order are both exercised.
func TestChaosGenMatchesReference(t *testing.T) {
	kinds := map[ctlKind]ChaosKind{evFail: ChaosFail, evDrain: ChaosDrain, evRestore: ChaosRestore}
	for _, tc := range []struct {
		name       string
		mtbf, mttr float64
		horizon    uint64
	}{
		{"loop", 2e6, 2e5, 3e8},
		{"short outages", 5e4, 0.7, 5e6},
		{"sub-cycle", 2.5, 0.6, 4000},
		{"empty", 1e9, 1e9, 10},
	} {
		for _, devices := range []int{1, 3, 16} {
			for _, seed := range []uint64{1, 7, 0xC0FFEE} {
				ch := ChaosConfig{Enabled: true, MTBF: tc.mtbf, MTTR: tc.mttr, Horizon: tc.horizon, Seed: seed}
				want := referenceChaos(ch, devices)
				c := &loopCtl{f: &Fleet{cfg: Config{Chaos: ch}, devType: make([]int, devices)}}
				c.initChaos()
				var got []ChaosEvent
				for at := c.next(); at != math.MaxUint64; at = c.next() {
					ev := c.pop()
					got = append(got, ChaosEvent{Cycle: at, Device: ev.aux, Kind: kinds[ev.kind]})
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %d devices, seed %d: lazy schedule of %d events differs from the reference's %d",
						tc.name, devices, seed, len(got), len(want))
				}
				if cap(c.chaos.v) > 1 {
					t.Errorf("%s, %d devices, seed %d: chaos queue grew to %d slots, want at most 1",
						tc.name, devices, seed, cap(c.chaos.v))
				}
			}
		}
	}
}
