package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/sched"
)

// universeNames returns the initialized universe's application names
// in profile order. Chaos draws traffic from the suite's own pipeline
// rather than the full workload list so the scenario runs unchanged
// over the miniature testkit universe the deterministic smoke test
// uses.
func (s *Suite) universeNames() []string {
	profiles := s.P.Profiles()
	names := make([]string, len(profiles))
	for i, r := range profiles {
		names[i] = r.Name
	}
	return names
}

// FleetChaos is the failure-injection ablation under bursty traffic: a
// third of the roster goes down mid-run and comes back two burst
// periods later, and the same arrival stream is served through the
// outage by FCFS and ILP-SMRA, with and without an autoscaler to
// backfill the lost capacity, and once with the outage announced as a
// drain instead of a crash. The artifact reports what a crash costs
// (checkpoint-evicted flights, tail wait, deadline misses) against the
// calm baseline, what co-scheduling and elasticity claw back, and what
// a planned drain saves over a fail — drained devices retire their
// in-flight group, so the drain column should never pay the fail
// column's eviction tail.
func (s *Suite) FleetChaos() (Artifact, error) {
	const (
		devices = 6
		nc      = 2
		jobs    = 96
		down    = 2
	)
	meanSolo := s.meanSoloCycles()
	deadline := 4 * meanSolo
	acfg := fleet.ArrivalConfig{
		Kind: fleet.Bursty, Jobs: jobs, Rate: 0.15, BurstRate: 2.0,
		MeanOn: float64(4 * meanSolo), MeanOff: float64(12 * meanSolo),
		LatencyFrac: 0.25, Deadline: deadline,
		Seed: rng.Hash2(s.Seed, 0xc4a0),
	}
	arrivals, err := acfg.Generate(s.universeNames())
	if err != nil {
		return Artifact{}, err
	}
	// The outage wave: two of six devices go down early in the run and
	// return eight mean-solo durations later — the run is
	// service-dominated at roughly jobs/devices solo durations
	// (~16 meanSolo), so the restore lands mid-run and the backlog the
	// outage strands drains through the survivors while traffic keeps
	// arriving.
	wave := func(kind fleet.ChaosKind) fleet.ChaosConfig {
		var trace []fleet.ChaosEvent
		for d := 0; d < down; d++ {
			trace = append(trace, fleet.ChaosEvent{Cycle: 4 * meanSolo, Device: d, Kind: kind})
		}
		for d := 0; d < down; d++ {
			trace = append(trace, fleet.ChaosEvent{Cycle: 12 * meanSolo, Device: d, Kind: fleet.ChaosRestore})
		}
		return fleet.ChaosConfig{Enabled: true, Trace: trace}
	}
	modes := []struct {
		name   string
		policy sched.Policy
		chaos  fleet.ChaosConfig
		scale  fleet.AutoscaleConfig
	}{
		{"ilp-calm", sched.ILPSMRA, fleet.ChaosConfig{}, fleet.AutoscaleConfig{}},
		{"fcfs-fail", sched.FCFS, wave(fleet.ChaosFail), fleet.AutoscaleConfig{}},
		{"ilp-fail", sched.ILPSMRA, wave(fleet.ChaosFail), fleet.AutoscaleConfig{}},
		{"ilp-fail-autoscale", sched.ILPSMRA, wave(fleet.ChaosFail),
			fleet.AutoscaleConfig{Enabled: true, Min: 2, Max: devices, High: 1.0, Low: 0.25, Epoch: meanSolo / 2}},
		{"ilp-drain", sched.ILPSMRA, wave(fleet.ChaosDrain), fleet.AutoscaleConfig{}},
	}
	a := Artifact{
		ID: "FleetChaos",
		Title: fmt.Sprintf("failure injection: %d devices, %d bursty jobs, %d-device outage wave, fail vs drain vs autoscale backfill (beyond the paper)",
			devices, jobs, down),
	}
	for _, m := range modes {
		a.Columns = append(a.Columns, m.name)
	}
	err = fleetTable(&a, func(i int) (fleet.Result, error) {
		m := modes[i]
		f, err := fleet.NewHomogeneous(s.P, devices, fleet.Config{
			NC: nc, Policy: m.policy, Engine: fleet.Modeled,
			SLO: fleet.SLOConfig{Enabled: true}, Chaos: m.chaos, Autoscale: m.scale,
			SampleEvery: meanSolo / 4,
		})
		if err != nil {
			return fleet.Result{}, err
		}
		return f.Run(arrivals)
	},
		missRateRow,
		metric{"wait p99 (kcyc)", func(_ fleet.Result, st fleet.RunStats) float64 { return st.Wait.P99 }},
		completedRow,
		metric{"chaos evictions", func(r fleet.Result, _ fleet.RunStats) float64 { return float64(r.ChaosEvictions) }},
		metric{"failures", func(r fleet.Result, _ fleet.RunStats) float64 { return float64(r.Failures) }},
		metric{"drains", func(r fleet.Result, _ fleet.RunStats) float64 { return float64(r.Drains) }},
		metric{"restores", func(r fleet.Result, _ fleet.RunStats) float64 { return float64(r.Restores) }},
		throughputRow,
		makespanRow)
	if err != nil {
		return Artifact{}, err
	}
	// Headline: what the outage costs and what a planned drain saves.
	calm := a.MustValue("wait p99 (kcyc)", "ilp-calm")
	failP99 := a.MustValue("wait p99 (kcyc)", "ilp-fail")
	drainP99 := a.MustValue("wait p99 (kcyc)", "ilp-drain")
	a.Notes = append(a.Notes, fmt.Sprintf("2-device outage: wait p99 %.1f -> %.1f kcyc, miss rate %.3f -> %.3f, %.0f checkpoint evictions",
		calm, failP99,
		a.MustValue("deadline-miss rate", "ilp-calm"), a.MustValue("deadline-miss rate", "ilp-fail"),
		a.MustValue("chaos evictions", "ilp-fail")))
	a.Notes = append(a.Notes, fmt.Sprintf("planned drain vs crash: wait p99 %.1f vs %.1f kcyc with %.0f evictions (drained flights retire)",
		drainP99, failP99, a.MustValue("chaos evictions", "ilp-drain")))
	a.Notes = append(a.Notes, fmt.Sprintf("autoscale backfill through the outage: wait p99 %.1f kcyc, miss rate %.3f",
		a.MustValue("wait p99 (kcyc)", "ilp-fail-autoscale"),
		a.MustValue("deadline-miss rate", "ilp-fail-autoscale")))
	return a, nil
}
