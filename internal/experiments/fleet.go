package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// fleetPolicies are the policies the online comparison sweeps — the
// paper's offline ladder (Fig 4.1) transplanted to the arrival-driven
// setting.
var fleetPolicies = []sched.Policy{sched.Serial, sched.FCFS, sched.ILP, sched.ILPSMRA}

// FleetOnline is an extension beyond the paper: the same policy ladder
// evaluated online, with jobs arriving over simulated time to a
// 4-device fleet under three traffic regimes — light (fleet mostly
// drains between arrivals), saturating (a standing queue, where the
// windowed ILP has real choice), and bursty (on-off arrivals stressing
// latency). For each regime the artifact reports fleet throughput
// (instructions/cycle over the makespan) and the p95 job turnaround in
// kilocycles.
func (s *Suite) FleetOnline() (Artifact, error) {
	const (
		devices = 4
		nc      = 2
		jobs    = 48
	)
	regimes := []struct {
		name string
		cfg  fleet.ArrivalConfig
	}{
		{"light", fleet.ArrivalConfig{Kind: fleet.Poisson, Jobs: jobs, Rate: 0.03}},
		{"saturating", fleet.ArrivalConfig{Kind: fleet.Poisson, Jobs: jobs, Rate: 1.0}},
		{"bursty", fleet.ArrivalConfig{Kind: fleet.Bursty, Jobs: jobs, Rate: 0.25}},
	}
	a := Artifact{
		ID:    "FleetOnline",
		Title: fmt.Sprintf("online fleet: %d devices, NC=%d, %d jobs per regime (beyond the paper)", devices, nc, jobs),
	}
	for _, p := range fleetPolicies {
		a.Columns = append(a.Columns, p.String())
	}
	for i, regime := range regimes {
		regime.cfg.Seed = rng.Hash2(s.Seed, uint64(i)+1)
		arrivals, err := regime.cfg.Generate(workloads.Names)
		if err != nil {
			return Artifact{}, err
		}
		thpt := Row{Label: regime.name + " throughput"}
		p95 := Row{Label: regime.name + " p95 turnaround (kcyc)"}
		for _, policy := range fleetPolicies {
			f, err := fleet.NewHomogeneous(s.P, devices, fleet.Config{NC: nc, Policy: policy})
			if err != nil {
				return Artifact{}, err
			}
			res, err := f.Run(arrivals)
			if err != nil {
				return Artifact{}, fmt.Errorf("fleet %s/%v: %w", regime.name, policy, err)
			}
			thpt.Values = append(thpt.Values, res.Throughput())
			p95.Values = append(p95.Values, res.TurnaroundSummary().P95)
		}
		a.Rows = append(a.Rows, thpt, p95)
	}
	// Headline: the ILP-SMRA gain over FCFS under saturation, the regime
	// the paper's offline evaluation approximates.
	fcfs, err := a.Value("saturating throughput", sched.FCFS.String())
	if err != nil {
		return Artifact{}, err
	}
	smra, err := a.Value("saturating throughput", sched.ILPSMRA.String())
	if err != nil {
		return Artifact{}, err
	}
	if fcfs > 0 {
		a.Notes = append(a.Notes, fmt.Sprintf("saturating ILP-SMRA/FCFS throughput: %.3fx", smra/fcfs))
	}
	return a, nil
}

// FleetSLO is the service-level ablation: identical saturating traffic
// with a latency-class share is dispatched under class-blind dispatch,
// SLO-priority dispatch (latency jobs queue first), and SLO dispatch
// with preemption (running all-batch groups are evicted, with
// checkpointed progress, when a waiting latency job would provably miss
// its deadline). The arrival generator draws the class tags from a
// stream independent of the time/name draws, so all three columns see
// the very same traffic — the deadline-miss differences are pure
// dispatch policy. The artifact reports the latency-class deadline-miss
// rate and tail latency alongside what the protection costs the batch
// class (wait, completion rate, fleet throughput) and how many
// evictions paid for it.
func (s *Suite) FleetSLO() (Artifact, error) {
	const (
		devices     = 4
		nc          = 2
		jobs        = 60
		latencyFrac = 0.1
	)
	// The deadline scales with the calibrated universe rather than being
	// a magic cycle count: twice the mean solo duration, comfortable for
	// a dispatched latency job (even co-running) but tight enough that
	// queueing behind batch backlogs blows it.
	profiles := s.P.Profiles()
	meanSolo := uint64(0)
	for _, r := range profiles {
		meanSolo += r.Cycles
	}
	meanSolo /= uint64(len(profiles))
	deadline := 2 * meanSolo
	acfg := fleet.ArrivalConfig{
		Kind: fleet.Poisson, Jobs: jobs, Rate: 0.8,
		LatencyFrac: latencyFrac, Deadline: deadline,
		Seed: rng.Hash2(s.Seed, 0x510),
	}
	arrivals, err := acfg.Generate(workloads.Names)
	if err != nil {
		return Artifact{}, err
	}
	modes := []struct {
		name string
		slo  fleet.SLOConfig
	}{
		{"class-blind", fleet.SLOConfig{}},
		{"slo-priority", fleet.SLOConfig{Enabled: true}},
		{"slo-preempt", fleet.SLOConfig{Enabled: true, Preempt: true}},
	}
	a := Artifact{
		ID: "FleetSLO",
		Title: fmt.Sprintf("SLO classes: %d devices, NC=%d, %d jobs, %.0f%% latency-class, deadline %d kcyc (beyond the paper)",
			devices, nc, jobs, 100*latencyFrac, deadline/1000),
	}
	for _, m := range modes {
		a.Columns = append(a.Columns, m.name)
	}
	labels := []string{
		"deadline-miss rate",
		"latency p99 turnaround (kcyc)",
		"latency p99 wait (kcyc)",
		"batch p95 wait (kcyc)",
		"batch jobs per Mcycle",
		"throughput",
		"evictions",
	}
	rows := map[string]*Row{}
	for _, label := range labels {
		rows[label] = &Row{Label: label}
	}
	for _, m := range modes {
		f, err := fleet.NewHomogeneous(s.P, devices, fleet.Config{NC: nc, Policy: sched.ILPSMRA, SLO: m.slo})
		if err != nil {
			return Artifact{}, err
		}
		res, err := f.Run(arrivals)
		if err != nil {
			return Artifact{}, fmt.Errorf("fleet slo/%s: %w", m.name, err)
		}
		batchJobs := len(res.Jobs) - res.LatencyJobs()
		add := func(label string, v float64) { rows[label].Values = append(rows[label].Values, v) }
		add("deadline-miss rate", res.MissRate())
		add("latency p99 turnaround (kcyc)", res.TurnaroundSummaryFor(fleet.Latency).P99)
		add("latency p99 wait (kcyc)", res.WaitSummaryFor(fleet.Latency).P99)
		add("batch p95 wait (kcyc)", res.WaitSummaryFor(fleet.Batch).P95)
		add("batch jobs per Mcycle", 1e6*float64(batchJobs)/float64(res.Makespan))
		add("throughput", res.Throughput())
		add("evictions", float64(len(res.Evictions)))
	}
	for _, label := range labels {
		a.Rows = append(a.Rows, *rows[label])
	}
	// Headlines: what preemption buys the latency class and what it
	// costs the batch class, on identical traffic.
	noPre := a.MustValue("deadline-miss rate", "slo-priority")
	withPre := a.MustValue("deadline-miss rate", "slo-preempt")
	a.Notes = append(a.Notes, fmt.Sprintf("latency deadline-miss rate with preemption: %.3f -> %.3f", noPre, withPre))
	bNoPre := a.MustValue("batch jobs per Mcycle", "slo-priority")
	bPre := a.MustValue("batch jobs per Mcycle", "slo-preempt")
	tNoPre := a.MustValue("throughput", "slo-priority")
	tPre := a.MustValue("throughput", "slo-preempt")
	if bNoPre > 0 && tNoPre > 0 {
		a.Notes = append(a.Notes, fmt.Sprintf("batch side on the same traffic: %.2f -> %.2f completed jobs/Mcycle (%+.1f%%), fleet throughput %.2f -> %.2f (%+.1f%%)",
			bNoPre, bPre, 100*(bPre-bNoPre)/bNoPre, tNoPre, tPre, 100*(tPre-tNoPre)/tNoPre))
	}
	return a, nil
}

// FleetScale is the warehouse-scale scenario the Modeled engine
// exists for: a 64-device mixed-generation roster serving a 100k-job
// bursty arrival stream with SLO classes and preemption on — three
// orders of magnitude beyond what cycle-accurate group simulation can
// sweep. Group completions come from the analytic engine (solo
// profiles scaled by the interference matrix's predicted slowdowns),
// so the whole run is a pure discrete-event computation over the
// indexed event core; the artifact contrasts naive FCFS dispatch with
// the placement-aware windowed ILP at a scale where the dispatcher's
// own cost would previously have dominated.
func (s *Suite) FleetScale() (Artifact, error) {
	const (
		nc          = 2
		jobs        = 100_000
		latencyFrac = 0.1
	)
	small, err := core.LoadOrInit(config.Small(), workloads.All())
	if err != nil {
		return Artifact{}, fmt.Errorf("calibrate %s: %w", config.Small().Name, err)
	}
	roster := []fleet.DeviceSpec{{Pipe: s.P, Count: 32}, {Pipe: small, Count: 32}}
	devices := 0
	for _, r := range roster {
		devices += r.Count
	}
	// Deadline scaled from the calibrated universe exactly as FleetSLO
	// does: twice the mean solo duration on the big generation.
	profiles := s.P.Profiles()
	meanSolo := uint64(0)
	for _, r := range profiles {
		meanSolo += r.Cycles
	}
	meanSolo /= uint64(len(profiles))
	deadline := 2 * meanSolo
	acfg := fleet.ArrivalConfig{
		Kind: fleet.Bursty, Jobs: jobs, Rate: 1.2,
		LatencyFrac: latencyFrac, Deadline: deadline,
		Seed: rng.Hash2(s.Seed, 0x5ca1e),
	}
	arrivals, err := acfg.Generate(workloads.Names)
	if err != nil {
		return Artifact{}, err
	}
	policies := []sched.Policy{sched.FCFS, sched.ILPSMRA}
	a := Artifact{
		ID: "FleetScale",
		Title: fmt.Sprintf("warehouse scale: %d mixed devices, %dk bursty jobs, %.0f%% latency-class, modeled engine (beyond the paper)",
			devices, jobs/1000, 100*latencyFrac),
	}
	for _, p := range policies {
		a.Columns = append(a.Columns, p.String())
	}
	labels := []string{
		"throughput",
		"mean utilization",
		"deadline-miss rate",
		"latency p99 wait (kcyc)",
		"batch p95 wait (kcyc)",
		"evictions",
		"makespan (Mcyc)",
	}
	rows := map[string]*Row{}
	for _, label := range labels {
		rows[label] = &Row{Label: label}
	}
	// single is the ILP-SMRA cell's run, the baseline of the partitioning
	// note below.
	var single fleet.Result
	for _, policy := range policies {
		f, err := fleet.New(fleet.Config{
			Devices: roster, NC: nc, Policy: policy, Engine: fleet.Modeled,
			SLO: fleet.SLOConfig{Enabled: true, Preempt: true},
		})
		if err != nil {
			return Artifact{}, err
		}
		res, err := f.Run(arrivals)
		if err != nil {
			return Artifact{}, fmt.Errorf("fleet scale/%v: %w", policy, err)
		}
		if policy == sched.ILPSMRA {
			single = res
		}
		add := func(label string, v float64) { rows[label].Values = append(rows[label].Values, v) }
		add("throughput", res.Throughput())
		add("mean utilization", res.MeanUtilization())
		add("deadline-miss rate", res.MissRate())
		add("latency p99 wait (kcyc)", res.WaitSummaryFor(fleet.Latency).P99)
		add("batch p95 wait (kcyc)", res.WaitSummaryFor(fleet.Batch).P95)
		add("evictions", float64(len(res.Evictions)))
		add("makespan (Mcyc)", float64(res.Makespan)/1e6)
	}
	for _, label := range labels {
		a.Rows = append(a.Rows, *rows[label])
	}
	fcfs := a.MustValue("throughput", sched.FCFS.String())
	smra := a.MustValue("throughput", sched.ILPSMRA.String())
	if fcfs > 0 {
		a.Notes = append(a.Notes, fmt.Sprintf("ILP-SMRA/FCFS throughput at %d devices x %dk jobs: %.3fx (modeled engine, zero cycle-accurate sims)",
			devices, jobs/1000, smra/fcfs))
	}
	// Partitioning note: the ILP-SMRA cell re-run as 8 partitioned event
	// loops. Splitting the backlog K ways lets the simulated schedule
	// drift from the single loop's — but never the job count.
	const shardK = 8
	f, err := fleet.New(fleet.Config{
		Devices: roster, NC: nc, Policy: sched.ILPSMRA, Engine: fleet.Modeled,
		SLO:    fleet.SLOConfig{Enabled: true, Preempt: true},
		Shards: shardK,
	})
	if err != nil {
		return Artifact{}, err
	}
	kRes, err := f.Run(arrivals)
	if err != nil {
		return Artifact{}, fmt.Errorf("fleet scale/%d shards: %w", shardK, err)
	}
	if len(single.Jobs) != len(kRes.Jobs) {
		return Artifact{}, fmt.Errorf("fleet scale: %d shards completed %d jobs, single loop %d",
			shardK, len(kRes.Jobs), len(single.Jobs))
	}
	a.Notes = append(a.Notes, fmt.Sprintf("partitioned event loops: %d-way split makespan %.2fx of single loop (%d jobs both)",
		shardK, float64(kRes.Makespan)/float64(single.Makespan), len(kRes.Jobs)))
	return a, nil
}

// FleetHetero evaluates mixed-generation rosters: the same saturating
// traffic is dispatched onto a homogeneous big-device fleet and onto a
// heterogeneous roster that swaps one big device for two small-
// generation ones, under naive FCFS placement and under the
// placement-aware ILP-SMRA dispatcher (per-device-type classes,
// interference matrices and completion bounds). The interesting cell is
// the mixed roster: FCFS places groups blindly, while the
// placement-aware dispatcher forms each device's group with the matrix
// of the generation that will run it.
func (s *Suite) FleetHetero() (Artifact, error) {
	const (
		nc   = 2
		jobs = 40
	)
	small, err := core.LoadOrInit(config.Small(), workloads.All())
	if err != nil {
		return Artifact{}, fmt.Errorf("calibrate %s: %w", config.Small().Name, err)
	}
	bigName := s.P.Config().Name
	mixedLabel := fmt.Sprintf("mixed 1x%s+2x%s", bigName, small.Config().Name)
	rosters := []struct {
		name string
		devs []fleet.DeviceSpec
	}{
		{"homogeneous 2x" + bigName, []fleet.DeviceSpec{{Pipe: s.P, Count: 2}}},
		{mixedLabel, []fleet.DeviceSpec{{Pipe: s.P, Count: 1}, {Pipe: small, Count: 2}}},
	}
	policies := []sched.Policy{sched.FCFS, sched.ILPSMRA}
	a := Artifact{
		ID:    "FleetHetero",
		Title: fmt.Sprintf("heterogeneous fleet: homogeneous vs mixed rosters, NC=%d, %d jobs (beyond the paper)", nc, jobs),
	}
	for _, p := range policies {
		a.Columns = append(a.Columns, p.String())
	}
	acfg := fleet.ArrivalConfig{Kind: fleet.Poisson, Jobs: jobs, Rate: 0.8, Seed: rng.Hash2(s.Seed, 0xe7e0)}
	arrivals, err := acfg.Generate(workloads.Names)
	if err != nil {
		return Artifact{}, err
	}
	for _, roster := range rosters {
		thpt := Row{Label: roster.name + " throughput"}
		p95 := Row{Label: roster.name + " p95 wait (kcyc)"}
		for _, policy := range policies {
			f, err := fleet.New(fleet.Config{Devices: roster.devs, NC: nc, Policy: policy})
			if err != nil {
				return Artifact{}, err
			}
			res, err := f.Run(arrivals)
			if err != nil {
				return Artifact{}, fmt.Errorf("fleet %s/%v: %w", roster.name, policy, err)
			}
			thpt.Values = append(thpt.Values, res.Throughput())
			p95.Values = append(p95.Values, res.WaitSummary().P95)
		}
		a.Rows = append(a.Rows, thpt, p95)
	}
	// Headline: what placement-awareness buys on the mixed roster.
	mixedThpt := a.MustValue(mixedLabel+" throughput", sched.ILPSMRA.String()) /
		a.MustValue(mixedLabel+" throughput", sched.FCFS.String())
	fcfsWait := a.MustValue(mixedLabel+" p95 wait (kcyc)", sched.FCFS.String())
	smraWait := a.MustValue(mixedLabel+" p95 wait (kcyc)", sched.ILPSMRA.String())
	a.Notes = append(a.Notes, fmt.Sprintf("mixed roster ILP-SMRA/FCFS: %.3fx throughput, p95 wait %.1f -> %.1f kcyc",
		mixedThpt, fcfsWait, smraWait))
	return a, nil
}
