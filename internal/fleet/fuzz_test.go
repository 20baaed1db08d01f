package fleet

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
)

// renderRoster is the canonical spelling of parsed roster entries —
// what ParseRoster's round-trip property re-parses.
func renderRoster(entries []RosterEntry) string {
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteByte(',')
		}
		if e.Count == 1 {
			b.WriteString(e.Name)
		} else {
			fmt.Fprintf(&b, "%dx%s", e.Count, e.Name)
		}
	}
	return b.String()
}

// FuzzParseRoster drives the roster parser with arbitrary input. The
// parser must never panic, and any accepted input must round-trip: the
// canonical rendering of the parsed entries re-parses to the very same
// entries.
func FuzzParseRoster(f *testing.F) {
	for _, seed := range []string{
		"GTX480", "gtx480-60sm", "Small", "small-8sm",
		"2xGTX480,2xSmall-8SM", "1xGTX480", " GTX480 , Small ",
		"", ",", "0xGTX480", "-1xSmall", "2x", "x", "2xNope",
		"GTX480,,Small", "999999999999999999999xGTX480",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		entries, err := ParseRoster(s)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatalf("ParseRoster(%q) accepted with no entries", s)
		}
		for _, e := range entries {
			if e.Count < 1 {
				t.Fatalf("ParseRoster(%q) produced count %d", s, e.Count)
			}
			if e.Name == "" {
				t.Fatalf("ParseRoster(%q) produced an empty name", s)
			}
		}
		canon := renderRoster(entries)
		again, err := ParseRoster(canon)
		if err != nil {
			t.Fatalf("ParseRoster(%q) round-trip %q rejected: %v", s, canon, err)
		}
		if len(again) != len(entries) {
			t.Fatalf("ParseRoster(%q) round-trip %q: %d entries, want %d", s, canon, len(again), len(entries))
		}
		for i := range entries {
			if again[i] != entries[i] {
				t.Fatalf("ParseRoster(%q) round-trip %q: entry %d = %+v, want %+v", s, canon, i, again[i], entries[i])
			}
		}
	})
}

// renderTrace is the canonical spelling of parsed trace arrivals.
func renderTrace(arrivals []Arrival) string {
	var b strings.Builder
	for i, a := range arrivals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s@%d", a.Name, a.Cycle)
		if a.SLO == Latency {
			fmt.Fprintf(&b, "!%d", a.Deadline)
		}
	}
	return b.String()
}

// FuzzParseTrace drives the NAME@CYCLE[!DEADLINE] trace parser with
// arbitrary input: never panic, and accepted inputs round-trip through
// the canonical rendering.
func FuzzParseTrace(f *testing.F) {
	for _, seed := range []string{
		"mm@0", "mm@0,conv@5000", "mm@100!60000",
		"mm@0!0", " mm @5 ", "a@1,b@2!3,c@4",
		"", "@5", "mm@", "mm@-1", "mm@1.5", "mm@1!x",
		"mm@18446744073709551615", "mm@18446744073709551616",
		"a@@5", "a!5@1", ",", "a@5,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		arrivals, err := ParseTrace(s)
		if err != nil {
			return
		}
		if len(arrivals) == 0 {
			t.Fatalf("ParseTrace(%q) accepted with no arrivals", s)
		}
		for _, a := range arrivals {
			if a.Name == "" {
				t.Fatalf("ParseTrace(%q) produced an empty name", s)
			}
			if a.SLO == Batch && a.Deadline != 0 {
				t.Fatalf("ParseTrace(%q) produced a batch arrival with a deadline: %+v", s, a)
			}
		}
		canon := renderTrace(arrivals)
		again, err := ParseTrace(canon)
		if err != nil {
			t.Fatalf("ParseTrace(%q) round-trip %q rejected: %v", s, canon, err)
		}
		if len(again) != len(arrivals) {
			t.Fatalf("ParseTrace(%q) round-trip %q: %d arrivals, want %d", s, canon, len(again), len(arrivals))
		}
		for i := range arrivals {
			if again[i] != arrivals[i] {
				t.Fatalf("ParseTrace(%q) round-trip %q: arrival %d = %+v, want %+v", s, canon, i, again[i], arrivals[i])
			}
		}
	})
}

// FuzzParseChaos drives the KIND@CYCLE:DEV chaos-trace parser with
// arbitrary input: never panic, and accepted inputs round-trip through
// FormatChaos, the canonical rendering.
func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"fail@1000:2", "drain@0:0", "restore@500:1",
		"fail@1000:0,restore@2000:0", "FAIL@9:3", " fail@5:0 , drain@6:1 ",
		"fail@18446744073709551615:0", "fail@18446744073709551616:0",
		"", ",", "fail", "fail@", "fail@5", "fail@5:", "fail@:1",
		"fail@-5:0", "fail@5:-1", "fail@5.5:0", "evict@5:0", "@5:0",
		"fail@5:0,", "fail@5:0:9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		events, err := ParseChaos(s)
		if err != nil {
			return
		}
		if len(events) == 0 {
			t.Fatalf("ParseChaos(%q) accepted with no events", s)
		}
		for _, ev := range events {
			if ev.Device < 0 {
				t.Fatalf("ParseChaos(%q) produced device %d", s, ev.Device)
			}
			switch ev.Kind {
			case ChaosFail, ChaosDrain, ChaosRestore:
			default:
				t.Fatalf("ParseChaos(%q) produced kind %v", s, ev.Kind)
			}
		}
		canon := FormatChaos(events)
		again, err := ParseChaos(canon)
		if err != nil {
			t.Fatalf("ParseChaos(%q) round-trip %q rejected: %v", s, canon, err)
		}
		if len(again) != len(events) {
			t.Fatalf("ParseChaos(%q) round-trip %q: %d events, want %d", s, canon, len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("ParseChaos(%q) round-trip %q: event %d = %+v, want %+v", s, canon, i, again[i], events[i])
			}
		}
		if FormatChaos(again) != canon {
			t.Fatalf("ParseChaos(%q): canonical form %q is not a fixed point", s, canon)
		}
	})
}

// FuzzParseControls drives the admission and autoscale spelling
// parsers together (they share the PREFIX:VALUE shape): never panic,
// and accepted inputs re-parse to the same configuration.
func FuzzParseControls(f *testing.F) {
	for _, seed := range []string{
		"off", "OFF", "", "reject:60000", "degrade:25000",
		"reject:0", "reject:", "reject", "admit:5", "degrade:-1",
		"1:4", "2:8", "0:4", "4:2", "1:", ":4", "1:4:9", "x:y",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if adm, err := ParseAdmission(s); err == nil {
			if adm.Enabled && adm.MaxWait == 0 {
				t.Fatalf("ParseAdmission(%q) enabled with zero bound", s)
			}
			again, err := ParseAdmission(s)
			if err != nil || again != adm {
				t.Fatalf("ParseAdmission(%q) not stable: %+v vs %+v (%v)", s, adm, again, err)
			}
		}
		if as, err := ParseAutoscale(s); err == nil {
			if as.Enabled && (as.Min < 1 || as.Max < as.Min) {
				t.Fatalf("ParseAutoscale(%q) accepted invalid bounds: %+v", s, as)
			}
			again, err := ParseAutoscale(s)
			if err != nil || again != as {
				t.Fatalf("ParseAutoscale(%q) not stable: %+v vs %+v (%v)", s, as, again, err)
			}
		}
	})
}

// fuzzConfig decodes FuzzFleetRun's inputs into a small Modeled-engine
// run on the testkit universe:
//
//   - roster: 1 + roster%8%6 devices, (roster>>3) % (count+1) of them
//     the tiny config and the rest Small-8SM;
//   - traffic: bit 7 selects closed-loop clients (1 + traffic%6 clients
//     of 1 + (traffic>>3)%4 requests), otherwise 1 + traffic%48 open
//     Poisson arrivals drawn from seed;
//   - nc: group size 1 + nc%3; policy: one of the five policies;
//   - slo: off, priority or preempt;
//   - controls: bit 0 admission (bit 3 degrades instead of rejecting),
//     bit 1 autoscale, bit 2 chaos, bit 4 a closed-loop timeout;
//   - chaos: up to four trace events, one per byte — kind b&3 (0 = no
//     event, then fail, drain, restore), device (b>>2)&7 modulo the
//     roster, cycle (b>>5)*20000.
//
// It returns the configuration, the open arrivals and the job count the
// ledger must account for.
func fuzzConfig(t *testing.T, seed uint64, roster, traffic, nc, policy, slo, controls uint8, chaos uint32) (Config, []Arrival, int) {
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	n := 1 + int(roster&7)%6
	nTiny := int(roster>>3) % (n + 1)
	var devices []DeviceSpec
	if n > nTiny {
		devices = append(devices, DeviceSpec{Pipe: small, Count: n - nTiny})
	}
	if nTiny > 0 {
		devices = append(devices, DeviceSpec{Pipe: tiny, Count: nTiny})
	}
	cfg := Config{
		Devices:     devices,
		NC:          1 + int(nc%3),
		Policy:      []sched.Policy{sched.Serial, sched.FCFS, sched.ProfileBased, sched.ILP, sched.ILPSMRA}[policy%5],
		Engine:      Modeled,
		SLO:         SLOConfig{Enabled: slo%3 > 0, Preempt: slo%3 == 2},
		SampleEvery: goldenSampleEvery,
	}
	latency := 0.0
	if cfg.SLO.Enabled {
		latency = 0.25
	}
	var arr []Arrival
	jobs := 0
	if traffic&0x80 != 0 {
		cfg.Closed = ClosedConfig{
			Enabled: true, Clients: 1 + int(traffic)%6, Requests: 1 + int(traffic>>3)%4,
			Think: 5_000, Retries: 1, LatencyFrac: latency, Deadline: 60_000,
			Seed: seed, Universe: testNames(),
		}
		if controls&0x10 != 0 {
			cfg.Closed.Timeout = 45_000
		}
		jobs = cfg.Closed.Clients * cfg.Closed.Requests
	} else {
		var err error
		arr, err = ArrivalConfig{
			Kind: Poisson, Jobs: 1 + int(traffic)%48, Rate: 1,
			LatencyFrac: latency, Deadline: 60_000, Seed: seed,
		}.Generate(testNames())
		if err != nil {
			t.Fatal(err)
		}
		jobs = len(arr)
	}
	if controls&1 != 0 {
		cfg.Admission = AdmissionConfig{Enabled: true, MaxWait: 60_000, Degrade: controls&8 != 0}
	}
	if controls&2 != 0 {
		cfg.Autoscale = AutoscaleConfig{Enabled: true, Min: 1, High: 1.2, Low: 0.5, Epoch: 10_000}
	}
	if controls&4 != 0 {
		cfg.Chaos.Enabled = true
		for i := 0; i < 4; i++ {
			b := uint8(chaos >> (8 * i))
			if b&3 == 0 {
				continue
			}
			cfg.Chaos.Trace = append(cfg.Chaos.Trace, ChaosEvent{
				Cycle:  uint64(b>>5) * 20_000,
				Device: int(b>>2&7) % n,
				Kind:   []ChaosKind{ChaosFail, ChaosDrain, ChaosRestore}[b&3-1],
			})
		}
	}
	return cfg, arr, jobs
}

// FuzzFleetRun fuzzes the event loop itself over small random
// configurations (see fuzzConfig). Inputs New rejects are skipped. Any
// other run must return a result, or — with chaos taking devices down
// for good — its stall error, and never panic. A result must conserve
// every job, never overlap two completed groups on one device, keep
// every device's busy time within the makespan, and reproduce byte for
// byte on a rerun.
func FuzzFleetRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, roster, traffic, nc, policy, slo, controls uint8, chaos uint32) {
		cfg, arr, jobs := fuzzConfig(t, seed, roster, traffic, nc, policy, slo, controls, chaos)
		fl, err := New(cfg)
		if err != nil {
			t.Skip(err)
		}
		// run renders everything a run reports, its error included.
		run := func() (Result, string, error) {
			res, err := fl.Run(arr)
			if err != nil {
				return res, err.Error(), err
			}
			var csv strings.Builder
			if err := res.Series.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			return res, res.Summary() + res.EvictionTrace() + csv.String(), nil
		}
		res, out, err := run()
		if err != nil && (!cfg.Chaos.Enabled || !strings.Contains(err.Error(), "no dispatchable work")) {
			t.Fatalf("Run: %v", err)
		}
		if _, again, _ := run(); again != out {
			t.Fatalf("rerun diverged:\n--- first ---\n%s--- again ---\n%s", out, again)
		}
		if err != nil {
			return
		}
		if res.Closed || res.Admission || res.Autoscale || res.Chaos {
			checkConservation(t, "fuzz", res, jobs)
		} else if done := res.CompletedJobs(); done != jobs {
			t.Fatalf("%d of %d jobs completed", done, jobs)
		}
		for d, busy := range res.DeviceBusy {
			if busy > res.Makespan {
				t.Errorf("device %d busy %d cycles past makespan %d", d, busy, res.Makespan)
			}
		}
		// Completed groups, as (device, dispatch) runs of Done records,
		// must not overlap on their device.
		var done []JobRecord
		for _, j := range res.Jobs {
			if j.Outcome == Done {
				done = append(done, j)
			}
		}
		sort.Slice(done, func(a, b int) bool {
			if done[a].Device != done[b].Device {
				return done[a].Device < done[b].Device
			}
			if done[a].Dispatch != done[b].Dispatch {
				return done[a].Dispatch < done[b].Dispatch
			}
			return done[a].ID < done[b].ID
		})
		var free uint64
		for i, j := range done {
			if i == 0 || j.Device != done[i-1].Device {
				free = 0
			} else if j.Dispatch != done[i-1].Dispatch && j.Dispatch < free {
				t.Fatalf("device %d: group dispatched at %d overlaps a group running until %d", j.Device, j.Dispatch, free)
			}
			free = max(free, j.Complete)
		}
	})
}
