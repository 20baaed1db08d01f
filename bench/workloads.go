package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/interference"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// workload is one set of inputs the benchmark runs. An op is the unit
// timed inside a run: setup builds the op's inputs from its seed (timed
// as set-up), run calls the system on them (timed from its start to
// opClock.stop), and verify checks what it returned.
type workload struct {
	name string
	// metrics names the workload-specific end-to-end metrics it reports
	// beyond the ones every workload reports.
	metrics []string
	setup   func(e *env, seed uint64, tr *tracer) (*input, error)
	run     func(in *input, c *opClock) (*outcome, error)
	verify  func(in *input, o *outcome) (digest string, err error)
}

// input is what an op's set-up hands its run and its check.
type input struct {
	pipe     *core.Pipeline  // calibrate: a fresh, uncalibrated pipeline
	apps     []kernel.Params // calibrate: the applications it calibrates
	ref      *core.Pipeline  // calibrate: the Small-8SM fixture, the oracle
	devs     []fleet.DeviceSpec
	fleet    *fleet.Fleet
	arrivals []fleet.Arrival // nil for closed loop
}

// outcome is what one op produced.
type outcome struct {
	cal     *calibration
	res     *fleet.Result
	summary string
	// e2e holds the op's workload-specific end-to-end values, layers its
	// per-layer values (traced runs only).
	e2e    map[string]float64
	layers map[string]float64
	// tail names the turnaround percentile sim_turnaround_tail_kcyc uses.
	tail string
}

// opClock times an op's run. In a traced run the run is the op's "run"
// root span.
type opClock struct {
	tr          *tracer
	begin, done snap
}

func (c *opClock) start() {
	c.tr.begin("run", "")
	c.begin = take()
}

// stop ends the timed part of the run; what follows is bookkeeping.
func (c *opClock) stop() {
	c.done = take()
	c.tr.end(0)
}

func (c *opClock) cost() cost { return since(c.begin, c.done) }

// env is what every op of a run shares: the repository root, the
// directory of the committed calibration fixtures, the application
// suite they were built over, and the workload sizes.
type env struct {
	root string
	dir  string
	apps []kernel.Params
	size size
}

// size holds the input sizes of the workloads.
type size struct {
	calibrate      []kernel.Params // applications calibrate profiles and pairs
	cycleNames     []string        // applications cycle-fleet jobs run
	cycleJobs      int             // arrivals per cycle-fleet op
	openJobs       int             // arrivals per modeled-open op
	closedRequests int             // requests per client per modeled-closed op
}

// fullSize is what the benchmark measures. calibrate takes one
// application of each of the paper's four classes (Table 3.2: HS is A,
// RAY MC, GUPS M, SPMV C), in suite order: six co-run pairs, so one
// cold calibration takes about ten seconds on a 2-core host and a run
// holds two of them. cycle-fleet jobs draw from three cheap
// applications of three different Small-8SM classes (LUD is MC, NN C,
// HS A in the fixture), so the ILP has real choices and an op takes
// about half a second: a run holds some thirty ops over fifteen seeds,
// and its median does not hang on which groups one seed happens to
// form.
var fullSize = size{
	calibrate:      suite("HS", "RAY", "GUPS", "SPMV"),
	cycleNames:     []string{"LUD", "NN", "HS"},
	cycleJobs:      48,
	openJobs:       500_000,
	closedRequests: 2000,
}

func suite(names ...string) []kernel.Params {
	out := make([]kernel.Params, len(names))
	for i, n := range names {
		out[i] = workloads.MustParams(n)
	}
	return out
}

func newEnv(root string, sz size) *env {
	return &env{root: root, dir: filepath.Join(root, "bench", "testdata"), apps: workloads.All(), size: sz}
}

func fixturePath(dir, device string) string {
	return filepath.Join(dir, "calibration-"+device+".json")
}

// restore builds a calibrated pipeline from the device's fixture, as
// cmd/fleet does from its calibration cache, without ever touching that
// cache.
func (e *env) restore(cfg config.GPUConfig, tr *tracer) (*core.Pipeline, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	tr.begin("core.Pipeline.LoadCalibration", cfg.Name)
	err = p.LoadCalibration(fixturePath(e.dir, cfg.Name), e.apps)
	tr.end(0)
	if err != nil {
		return nil, fmt.Errorf("%w; rebuild the fixtures with -regen-calibration", err)
	}
	return p, nil
}

// regenerate rebuilds every fixture with Init + SaveCalibration.
func regenerate(dir string) error {
	for _, cfg := range []config.GPUConfig{config.GTX480(), config.Small()} {
		p, err := core.New(cfg)
		if err != nil {
			return err
		}
		if err := p.Init(workloads.All()); err != nil {
			return fmt.Errorf("calibrate %s: %w", cfg.Name, err)
		}
		if err := p.SaveCalibration(fixturePath(dir, cfg.Name)); err != nil {
			return err
		}
	}
	return nil
}

func fnvHex(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// --- calibrate ---------------------------------------------------------

// calibration is the state Pipeline.Init computes and SaveCalibration
// persists.
type calibration struct {
	Profiles   []profile.Result     `json:"profiles"`
	Thresholds classify.Thresholds  `json:"thresholds"`
	Classes    map[string]string    `json:"classes"`
	Matrix     *interference.Matrix `json:"matrix"`
}

func newCalibration(profiles []profile.Result, th classify.Thresholds, classes map[string]classify.Class, m *interference.Matrix) *calibration {
	c := &calibration{Profiles: profiles, Thresholds: th, Classes: make(map[string]string, len(classes)), Matrix: m}
	for name, cls := range classes {
		c.Classes[name] = cls.String()
	}
	return c
}

// simCycles sums the simulated device-cycles of the solo profiles and
// the pair co-runs.
func (c *calibration) simCycles() uint64 {
	var n uint64
	for _, p := range c.Profiles {
		n += p.Cycles
	}
	for _, p := range c.Matrix.Pairs {
		n += p.CoRunCycles
	}
	return n
}

var calibrate = &workload{
	name:    "calibrate",
	metrics: []string{"sim_mcycles_per_s"},
	setup:   calibrateSetup,
	run:     calibrateRun,
	verify:  verifyCalibration,
}

// calibrateSetup builds the uncalibrated Small-8SM pipeline and restores
// the Small-8SM fixture the op's result is checked against. The input
// has no random part, so every seed gives the same calibration.
func calibrateSetup(e *env, _ uint64, tr *tracer) (*input, error) {
	p, err := core.New(config.Small())
	if err != nil {
		return nil, err
	}
	ref, err := e.restore(config.Small(), tr)
	return &input{pipe: p, apps: e.size.calibrate, ref: ref}, err
}

// calibrateRun runs a cold Pipeline.Init. A traced op calls Init's
// public steps one by one, in Init's order, so each gets its own span;
// an untraced op calls Init itself.
func calibrateRun(in *input, c *opClock) (*outcome, error) {
	p, cfg, apps := in.pipe, in.pipe.Config(), in.apps
	var cal *calibration
	if tr := c.tr; tr == nil {
		if err := p.Init(apps); err != nil {
			return nil, err
		}
		cal = newCalibration(p.Profiles(), p.Thresholds(), p.Classes(), p.Matrix())
	} else {
		prof := p.Profiler()
		profiles := make([]profile.Result, 0, len(apps))
		for _, a := range apps {
			tr.begin("profile.Profiler.Run", a.Name)
			r, err := prof.Run(a, 0)
			tr.end(r.Cycles)
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, r)
		}
		tr.begin("classify.CalibrateThresholds", "")
		th := classify.CalibrateThresholds(cfg, profiles)
		tr.end(0)
		tr.begin("classify.Table", "")
		classes := make(map[string]classify.Class, len(apps))
		for _, row := range classify.Table(th, profiles) {
			classes[row.Name] = row.Class
		}
		tr.end(0)
		tr.begin("interference.Compute", "")
		m, err := interference.Compute(cfg, prof, classes, apps)
		var pairCycles uint64
		if m != nil {
			for _, pr := range m.Pairs {
				pairCycles += pr.CoRunCycles
			}
		}
		tr.end(pairCycles)
		if err != nil {
			return nil, err
		}
		cal = newCalibration(profiles, th, classes, m)
	}
	c.stop()
	o := &outcome{cal: cal, e2e: map[string]float64{
		"sim_mcycles_per_s": float64(cal.simCycles()) / 1e6 / c.cost().Wall,
	}}
	if c.tr != nil {
		o.layers = calibrateLayers(c.tr, cal)
	}
	return o, nil
}

func calibrateLayers(tr *tracer, cal *calibration) map[string]float64 {
	spans := tr.opSpans()
	load, _ := named(spans, "core.Pipeline.LoadCalibration")
	prof, profCycles := named(spans, "profile.Profiler.Run")
	thr, _ := named(spans, "classify.CalibrateThresholds")
	tab, _ := named(spans, "classify.Table")
	inf, infCycles := named(spans, "interference.Compute")
	l := map[string]float64{
		"core.load_s":                    load.Wall,
		"profile.wall_s":                 prof.Wall,
		"profile.cpu_s":                  prof.CPU,
		"profile.alloc_mb":               prof.AllocMB,
		"profile.sim_mcycles":            float64(profCycles) / 1e6,
		"profile.mcycles_per_s":          ratio(float64(profCycles)/1e6, prof.Wall),
		"classify.wall_s":                thr.Wall + tab.Wall,
		"interference.wall_s":            inf.Wall,
		"interference.cpu_s":             inf.CPU,
		"interference.alloc_mb":          inf.AllocMB,
		"interference.pairs":             float64(len(cal.Matrix.Pairs)),
		"interference.sim_mcycles":       float64(infCycles) / 1e6,
		"interference.mcycles_per_cpu_s": ratio(float64(infCycles)/1e6, inf.CPU),
		"interference.parallel_eff":      ratio(inf.CPU, inf.Wall*float64(runtime.NumCPU())),
	}
	// Per paper class (Table 3.2), not the class this small calibration
	// assigns: the label must not move when thresholds do.
	var wall, cycles [4]float64
	for _, s := range spans {
		if s.Name != "profile.Profiler.Run" {
			continue
		}
		cls, err := classify.ParseClass(workloads.ExpectedClass[s.Arg])
		if err != nil {
			continue
		}
		wall[cls] += s.Cost.Wall
		cycles[cls] += float64(s.Cycles) / 1e6
	}
	for _, cls := range classify.All() {
		l["profile.mcycles_per_s."+cls.String()] = ratio(cycles[cls], wall[cls])
	}
	return l
}

// verifyCalibration checks the op's solo profiles and pair co-runs of
// suite applications against the committed Small-8SM fixture: neither
// depends on which other applications share the universe, so they must
// match the fixture's entries exactly. The digest covers everything
// SaveCalibration would persist.
func verifyCalibration(in *input, o *outcome) (string, error) {
	cal, n := o.cal, len(in.apps)
	if len(cal.Profiles) != n || len(cal.Matrix.Pairs) != n*(n-1)/2 {
		return "", fmt.Errorf("calibration has %d profiles and %d pairs for %d applications",
			len(cal.Profiles), len(cal.Matrix.Pairs), n)
	}
	inSuite := func(name string) bool { _, ok := workloads.ExpectedClass[name]; return ok }
	want := make(map[string]profile.Result)
	for _, r := range in.ref.Profiles() {
		want[r.Name] = r
	}
	for _, r := range cal.Profiles {
		if w := want[r.Name]; inSuite(r.Name) && w != r {
			return "", fmt.Errorf("solo profile of %s differs from the fixture: got %v, want %v", r.Name, r, w)
		}
	}
	pairs := make(map[string]interference.PairResult)
	for _, p := range in.ref.Matrix().Pairs {
		pairs[p.A+"+"+p.B] = p
	}
	for _, p := range cal.Matrix.Pairs {
		if w := pairs[p.A+"+"+p.B]; inSuite(p.A) && inSuite(p.B) && w != p {
			return "", fmt.Errorf("co-run %s+%s differs from the fixture: got %+v, want %+v", p.A, p.B, p, w)
		}
	}
	data, err := json.Marshal(cal)
	if err != nil {
		return "", err
	}
	return fnvHex(data), nil
}

// --- fleets --------------------------------------------------------------

// deviceCount is one roster entry.
type deviceCount struct {
	cfg   func() config.GPUConfig
	count int
}

// fleetSpec is a fleet workload: a roster, and a configuration plus,
// for open loop, an arrival stream derived from the op's seed.
type fleetSpec struct {
	roster []deviceCount
	// build returns the configuration (without Devices), the arrival
	// stream (nil for closed loop) and the application names jobs are
	// drawn from.
	build func(seed uint64, sz size) (fleet.Config, *fleet.ArrivalConfig, []string)
}

// fleetMetrics are the workload-specific metrics of the fleet workloads.
var fleetMetrics = []string{"jobs_per_s", "sim_ipc", "sim_turnaround_p50_kcyc", "sim_turnaround_tail_kcyc", "sim_miss_rate"}

func fleetWorkload(name string, engine fleet.EngineMode, metrics []string, s fleetSpec) *workload {
	return &workload{name: name, metrics: metrics, setup: s.setup, run: s.run, verify: verifyFleet(engine)}
}

// cycle-fleet has no latency-class jobs, so no miss rate.
var cycleFleet = fleetWorkload("cycle-fleet", fleet.Cycle, fleetMetrics[:4], fleetSpec{
	roster: []deviceCount{{config.Small, 4}},
	build: func(seed uint64, sz size) (fleet.Config, *fleet.ArrivalConfig, []string) {
		return fleet.Config{NC: 2, Policy: sched.ILPSMRA, Engine: fleet.Cycle},
			&fleet.ArrivalConfig{Kind: fleet.Poisson, Jobs: sz.cycleJobs, Rate: 0.5, Seed: seed},
			sz.cycleNames
	},
})

var modeledOpen = fleetWorkload("modeled-open", fleet.Modeled, fleetMetrics, fleetSpec{
	roster: []deviceCount{{config.GTX480, 32}, {config.Small, 32}},
	build: func(seed uint64, sz size) (fleet.Config, *fleet.ArrivalConfig, []string) {
		return fleet.Config{
				NC: 2, Policy: sched.ILPSMRA, Engine: fleet.Modeled,
				SLO: fleet.SLOConfig{Enabled: true, Preempt: true},
			},
			&fleet.ArrivalConfig{Kind: fleet.Bursty, Jobs: sz.openJobs, Rate: 0.5, LatencyFrac: 0.1, Seed: seed},
			workloads.Names
	},
})

var modeledClosed = fleetWorkload("modeled-closed", fleet.Modeled, fleetMetrics, fleetSpec{
	roster: []deviceCount{{config.GTX480, 8}, {config.Small, 8}},
	build: func(seed uint64, sz size) (fleet.Config, *fleet.ArrivalConfig, []string) {
		return fleet.Config{
			NC: 2, Policy: sched.ILPSMRA, Engine: fleet.Modeled,
			Closed: fleet.ClosedConfig{
				Enabled: true, Clients: 64, Requests: sz.closedRequests,
				Think: 400_000, Timeout: 600_000, Retries: 2, LatencyFrac: 0.2,
				Seed: seed, Universe: workloads.Names,
			},
			Admission: fleet.AdmissionConfig{Enabled: true, MaxWait: 400_000, Modeled: true},
			// Admission keeps queues below the default scale-up watermark
			// of four waiting jobs per device, so at the default the
			// autoscaler never acts; at one it provisions and releases
			// devices over a thousand times an op.
			Autoscale:   fleet.AutoscaleConfig{Enabled: true, Min: 8, Max: 16, High: 1},
			Chaos:       fleet.ChaosConfig{Enabled: true, MTBF: 20e6, MTTR: 2e6, Horizon: 1e9, Seed: seed},
			SampleEvery: 1_000_000,
		}, nil, workloads.Names
	},
})

// workloadList is every workload in report order.
var workloadList = []*workload{calibrate, cycleFleet, modeledOpen, modeledClosed}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, ", "))
}

// setup restores the roster from the fixtures, so every op starts with
// cold scheduler memos as a fresh cmd/fleet process does, generates the
// traffic and builds the fleet.
func (s fleetSpec) setup(e *env, seed uint64, tr *tracer) (*input, error) {
	in := &input{}
	for _, r := range s.roster {
		p, err := e.restore(r.cfg(), tr)
		if err != nil {
			return nil, err
		}
		in.devs = append(in.devs, fleet.DeviceSpec{Pipe: p, Count: r.count})
	}
	cfg, ac, names := s.build(seed, e.size)
	cfg.Devices = in.devs
	if ac != nil {
		tr.begin("fleet.ArrivalConfig.Generate", "")
		var err error
		in.arrivals, err = ac.Generate(names)
		tr.end(0)
		if err != nil {
			return nil, err
		}
	}
	tr.begin("fleet.New", "")
	var err error
	in.fleet, err = fleet.New(cfg)
	tr.end(0)
	return in, err
}

// run runs the fleet and renders its summary.
func (s fleetSpec) run(in *input, c *opClock) (*outcome, error) {
	tr := c.tr
	tr.begin("fleet.Fleet.Run", "")
	res, err := in.fleet.Run(in.arrivals)
	tr.end(0)
	if err != nil {
		return nil, err
	}
	tr.begin("fleet.Result.Summary", "")
	summary := res.Summary()
	tr.end(0)
	c.stop()

	o := &outcome{res: &res, summary: summary, e2e: map[string]float64{}}
	wall := c.cost().Wall
	o.e2e["jobs_per_s"] = float64(len(res.Jobs)) / wall
	o.e2e["sim_ipc"] = res.Throughput()
	turn := res.Turnarounds()
	o.e2e["sim_turnaround_p50_kcyc"] = stats.Percentile(turn, 50)
	pct := tailPercentile(len(turn))
	o.tail = fmt.Sprintf("p%g", pct)
	o.e2e["sim_turnaround_tail_kcyc"] = stats.Percentile(turn, pct)
	submitted := res.Submitted
	if !res.Closed {
		submitted = len(res.Jobs)
	}
	o.e2e["sim_miss_rate"] = ratio(float64(res.DeadlineMisses()+res.Rejected+res.Abandoned), float64(submitted))
	if tr != nil {
		o.layers = fleetLayers(tr, &res, in.devs, wall)
	}
	return o, nil
}

// tailPercentile is the highest of p99, p90 and p75 with at least ten
// samples beyond it (p50 below 40 samples).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func fleetLayers(tr *tracer, res *fleet.Result, devs []fleet.DeviceSpec, wall float64) map[string]float64 {
	// The group memos, one per device type, hold every group the run
	// simulated, speculative ones included.
	var sims int
	var simCycles uint64
	for _, d := range devs {
		tr.begin("sched.Scheduler.SnapshotGroups", d.Pipe.Config().Name)
		groups := d.Pipe.Scheduler().SnapshotGroups()
		tr.end(0)
		sims += len(groups)
		for _, g := range groups {
			simCycles += g.Cycles
		}
	}
	spans := tr.opSpans()
	load, _ := named(spans, "core.Pipeline.LoadCalibration")
	gen, _ := named(spans, "fleet.ArrivalConfig.Generate")
	nw, _ := named(spans, "fleet.New")
	run, _ := named(spans, "fleet.Fleet.Run")
	sum, _ := named(spans, "fleet.Result.Summary")
	var busy uint64
	for _, b := range res.DeviceBusy {
		busy += b
	}
	dispatched := dispatchedCompositions(res)
	sub := float64(res.Submitted)
	rows := 0
	if res.Series != nil {
		rows = res.Series.Rows()
	}
	return map[string]float64{
		"core.load_s":                 load.Wall,
		"fleet.arrivals_s":            gen.Wall,
		"fleet.new_s":                 nw.Wall,
		"fleet.run.wall_s":            run.Wall,
		"fleet.run.cpu_s":             run.CPU,
		"fleet.run.alloc_mb":          run.AllocMB,
		"fleet.run.parallel_eff":      ratio(run.CPU, run.Wall*float64(runtime.NumCPU())),
		"fleet.run.ns_per_job":        ratio(run.Wall*1e9, float64(len(res.Jobs))),
		"fleet.run.ns_per_submission": ratio(run.Wall*1e9, sub),
		"fleet.run.gc_count":          float64(run.GCs),
		"fleet.run.gc_pause_ms":       run.PauseMs,
		"sched.group_sims":            float64(sims),
		"sched.groups_dispatched":     float64(dispatched),
		"sched.sim_useful_frac":       ratio(float64(dispatched), float64(sims)),
		"sched.sim_mcycles":           float64(simCycles) / 1e6,
		"sched.mcycles_per_cpu_s":     ratio(float64(simCycles)/1e6, run.CPU),
		"sched.smra_moves":            float64(res.SMMoves),
		"fleet.groups":                float64(res.Groups),
		"fleet.ilp_group_frac":        ratio(float64(res.ILPGroups), float64(res.Groups)),
		"fleet.evictions":             float64(len(res.Evictions)),
		"fleet.evict_waste_frac":      ratio(float64(res.WastedCycles()), float64(busy)),
		"fleet.submitted":             sub,
		"fleet.reject_frac":           ratio(float64(res.Rejected), sub),
		"fleet.retry_frac":            ratio(float64(res.Retried), sub),
		"fleet.abandon_frac":          ratio(float64(res.Abandoned), sub),
		"fleet.chaos_evictions":       float64(res.ChaosEvictions),
		"fleet.provisions":            float64(res.Provisions),
		"obs.rows":                    float64(rows),
		"stats.summary_s":             sum.Wall,
	}
}

// dispatchedCompositions counts the distinct multi-member group
// compositions (device type plus sorted member names) among the groups
// the run completed; a group is the jobs sharing a device and a
// dispatch cycle.
func dispatchedCompositions(res *fleet.Result) int {
	type key struct {
		dev      int
		dispatch uint64
	}
	members := make(map[key][]string)
	for _, j := range res.Jobs {
		if j.Outcome == fleet.Done {
			k := key{j.Device, j.Dispatch}
			members[k] = append(members[k], j.Name)
		}
	}
	seen := make(map[string]bool)
	for k, names := range members {
		if len(names) < 2 {
			continue
		}
		sort.Strings(names)
		seen[res.DeviceConfig[k.dev]+":"+strings.Join(names, "|")] = true
	}
	return len(seen)
}

// verifyFleet checks a fleet run's invariants and digests its summary.
func verifyFleet(engine fleet.EngineMode) func(*input, *outcome) (string, error) {
	return func(in *input, o *outcome) (string, error) {
		r := o.res
		if r.Closed {
			if got := r.CompletedJobs() + r.Rejected + r.Abandoned; r.Submitted != got {
				return "", fmt.Errorf("closed loop lost work: submitted %d, completed+rejected+abandoned %d", r.Submitted, got)
			}
		} else {
			if len(r.Jobs) != len(in.arrivals) {
				return "", fmt.Errorf("open loop has %d job records for %d arrivals", len(r.Jobs), len(in.arrivals))
			}
			for _, j := range r.Jobs {
				if j.Outcome != fleet.Done {
					return "", fmt.Errorf("open-loop job %d ended %v", j.ID, j.Outcome)
				}
			}
		}
		for d, b := range r.DeviceBusy {
			if b > r.Makespan {
				return "", fmt.Errorf("device %d busy %d cycles past the %d-cycle makespan", d, b, r.Makespan)
			}
		}
		want := 0
		if engine == fleet.Cycle {
			want = r.Groups
		}
		if r.CycleGroups != want {
			return "", fmt.Errorf("%v engine simulated %d of %d groups cycle-accurately, want %d", engine, r.CycleGroups, r.Groups, want)
		}
		return fnvHex([]byte(o.summary)), nil
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
