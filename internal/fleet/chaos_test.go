package fleet

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sched"
)

// chaosCase is the canonical failure-injection scenario: the closed
// case (every control surface live) plus an explicit outage wave — two
// devices of different types crash mid-run, a third is drained, and
// all three come back before the run ends. Cycles sit well inside the
// case's ~550k-cycle makespan so every kind actually fires.
func chaosCase(t *testing.T, shards int) Config {
	t.Helper()
	cfg := closedCase(t, shards)
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
func runChaosCase(t *testing.T, shards int) (Result, string, string) {
	t.Helper()
	f, err := New(chaosCase(t, shards))
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
// at one and two shards — summary with the chaos counter line, the
// eviction trace's trigger=chaos records, and the time series with the
// failed/draining gauge columns. Regenerate with
//
//	go test ./internal/fleet -run ChaosGolden -update
//
// only when chaos behavior is meant to change.
func TestChaosGolden(t *testing.T) {
	for _, shards := range []int{1, 2} {
		res, summary, csv := runChaosCase(t, shards)
		if !res.Chaos {
			t.Fatalf("shards=%d: Result.Chaos = false", shards)
		}
		if res.Failures != 2 || res.Drains != 1 || res.Restores != 3 {
			t.Fatalf("shards=%d: failures/drains/restores = %d/%d/%d, want 2/1/3",
				shards, res.Failures, res.Drains, res.Restores)
		}
		name := "chaos_shard1"
		if shards == 2 {
			name = "chaos_shard2"
		}
		compareGolden(t, name+".golden", summary)
		compareGolden(t, "timeseries_"+name+".golden", csv)
	}
}

// TestChaosShardedDeterminism mirrors TestClosedShardedDeterminism
// with the outage wave live: repeated runs at every shard count must
// produce byte-identical summaries, eviction traces and series, and
// the three shard counts must agree with each other — the chaos
// schedule is a pure function of the configuration, never of shard
// layout. Runs under -race in CI.
func TestChaosShardedDeterminism(t *testing.T) {
	var baseSum string
	for _, shards := range []int{1, 2, 4} {
		_, firstSum, firstCSV := runChaosCase(t, shards)
		for run := 1; run < 3; run++ {
			_, sum, csv := runChaosCase(t, shards)
			if sum != firstSum {
				t.Fatalf("shards=%d run %d summary diverged from run 0:\n--- first ---\n%s--- again ---\n%s",
					shards, run, firstSum, sum)
			}
			if csv != firstCSV {
				t.Fatalf("shards=%d run %d time series diverged from run 0", shards, run)
			}
		}
		if shards == 1 {
			baseSum = firstSum
			continue
		}
		// Aggregate chaos counters and conservation totals must agree
		// across shard counts (per-device series layouts differ, so the
		// summary's shard-independent lines are compared via counters in
		// TestChaosConservation; here the counter lines suffice).
		for _, line := range strings.Split(firstSum, "\n") {
			if strings.HasPrefix(line, "chaos") {
				if !strings.Contains(baseSum, line) {
					t.Errorf("shards=%d chaos line %q not in shard-1 summary", shards, line)
				}
			}
		}
	}
}

// TestChaosConservation is the property test behind failure injection:
// across engines, shard counts and seeds, with a generated failure
// schedule constantly killing and restoring devices, every submitted
// attempt still ends in exactly one of completed, rejected or
// abandoned — a crash may strand progress, never a job.
func TestChaosConservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine EngineMode
		shards int
		policy sched.Policy
	}{
		{"cycle-fcfs", Cycle, 0, sched.FCFS},
		{"cycle-ilp", Cycle, 0, sched.ILPSMRA},
		{"modeled-1", Modeled, 1, sched.ILPSMRA},
		{"modeled-2", Modeled, 2, sched.ILPSMRA},
		{"modeled-4", Modeled, 4, sched.ILPSMRA},
	} {
		for _, seed := range []uint64{1, 2, 0xDEAD} {
			cfg := closedCase(t, tc.shards)
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
		cfg := closedCase(t, 1)
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
// never hang, never return a short Result. It covers the single loop
// under the Cycle engine and the Modeled engine at one and two
// partitions.
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
			shards int
		}{{Cycle, 0}, {Modeled, 1}, {Modeled, 2}} {
			label := fmt.Sprintf("%v/%v/shards=%d", kind, tc.engine, tc.shards)
			f, err := New(Config{
				Devices: homo(p, 2), NC: 2, Policy: sched.ILPSMRA,
				Engine: tc.engine, Shards: tc.shards,
				Chaos: ChaosConfig{Enabled: true, Trace: []ChaosEvent{
					{Cycle: at, Device: 0, Kind: kind},
					{Cycle: at, Device: 1, Kind: kind},
				}},
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
		cfg := chaosCase(t, 1)
		tc.break_(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	// The generator spelling with sane parameters must be accepted.
	cfg := chaosCase(t, 1)
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
