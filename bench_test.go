// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablation benchmarks for mechanisms of the layer map
// in ARCHITECTURE.md ("Layer map": the FR-FCFS DRAM controller and
// ILP-SMRA's reallocation thresholds and period).
//
// The paper artifacts share one lazily initialized experiment suite
// (solo profiles + all-pairs interference on the 60-SM device); the
// first figure benchmark pays that cost and later ones reuse the
// memoized state, so `go test -bench=. -benchmem` regenerates the whole
// evaluation exactly once. Custom metrics report the headline numbers
// (normalized throughput gains) next to the usual ns/op.
package repro

import (
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/interference"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/testkit"
	"repro/internal/workloads"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	if testing.Short() {
		// The shared suite pays full-device calibration plus the
		// all-pairs interference campaign — minutes of work. The CI
		// smoke run (-short -benchtime 1x) only needs to prove the
		// harness still compiles and executes.
		b.Skip("figure benchmarks need the full experiment suite; skipped in -short")
	}
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.NewSuite(config.GTX480())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// artifactBench regenerates one paper artifact per iteration and logs it
// on the first run.
func artifactBench(b *testing.B, gen func(*experiments.Suite) (experiments.Artifact, error)) experiments.Artifact {
	s := sharedSuite(b)
	var art experiments.Artifact
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := gen(s)
		if err != nil {
			b.Fatal(err)
		}
		art = a
	}
	b.StopTimer()
	b.Logf("\n%s", art)
	return art
}

// --- Paper artifacts ---------------------------------------------------

func BenchmarkFig1_2(b *testing.B) {
	art := artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig1_2() })
	max := 0.0
	for _, r := range art.Rows {
		if r.Values[0] > max {
			max = r.Values[0]
		}
	}
	b.ReportMetric(max, "max-util-%")
}

func BenchmarkTable3_2(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Table3_2() })
}

func BenchmarkFig3_4(b *testing.B) {
	art := artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig3_4() })
	b.ReportMetric(art.MustValue("class MC", "with M"), "MC-slowdown-by-M")
}

func BenchmarkFig3_5(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig3_5() })
}

func BenchmarkFig3_6(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig3_6() })
}

func BenchmarkFig4_1(b *testing.B) {
	art := artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_1() })
	b.ReportMetric(art.MustValue("ILP", "vs Serial"), "ILP-vs-serial")
}

func BenchmarkFig4_2(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_2() })
}

func BenchmarkFig4_3(b *testing.B) {
	art := artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_3() })
	sum := 0.0
	for _, r := range art.Rows {
		v, err := art.Value(r.Label, "ILP-SMRA")
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	b.ReportMetric(sum/float64(len(art.Rows)), "ILP-SMRA-vs-even")
}

func BenchmarkFig4_4(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_4() })
}

func BenchmarkFig4_5(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_5() })
}

func BenchmarkFig4_6(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_6() })
}

func BenchmarkFig4_7(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_7() })
}

func BenchmarkFig4_8(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_8() })
}

func BenchmarkFig4_9(b *testing.B) {
	art := artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_9() })
	b.ReportMetric(art.MustValue("ILP", "vs Serial"), "ILP-vs-serial")
}

func BenchmarkFig4_10(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_10() })
}

func BenchmarkFig4_11(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_11() })
}

func BenchmarkFig4_12(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.Fig4_12() })
}

func BenchmarkAppendixA(b *testing.B) {
	artifactBench(b, func(s *experiments.Suite) (experiments.Artifact, error) { return s.AppendixA() })
}

// --- Ablations (ARCHITECTURE.md, "Layer map") -------------------------
// These use the small test device so each ablation point costs seconds,
// not minutes; the contrasts, not the absolute numbers, are the point.

// coRunCycles runs two mini kernels split across the small device and
// returns the makespan.
func coRunCycles(b *testing.B, cfg config.GPUConfig) uint64 {
	b.Helper()
	sets := interference.EvenSplit(cfg.NumSMs, 2)
	sts, err := interference.CoRun(cfg, []kernel.Params{testkit.MiniM(), testkit.MiniC()}, sets)
	if err != nil {
		b.Fatal(err)
	}
	maxEnd := sts[0].EndCycle
	if sts[1].EndCycle > maxEnd {
		maxEnd = sts[1].EndCycle
	}
	return maxEnd
}

// BenchmarkAblationMemSched contrasts FR-FCFS against plain FCFS memory
// scheduling under an M+C co-run — the mechanism behind class M's
// dominance in Fig 3.4.
func BenchmarkAblationMemSched(b *testing.B) {
	var frfcfs, fcfs uint64
	for i := 0; i < b.N; i++ {
		cfg := testkit.Config()
		cfg.DRAM.Sched = config.MemFRFCFS
		frfcfs = coRunCycles(b, cfg)
		cfg.DRAM.Sched = config.MemFCFS
		fcfs = coRunCycles(b, cfg)
	}
	b.ReportMetric(float64(fcfs)/float64(frfcfs), "fcfs/frfcfs-cycles")
}

// smraQueue is an asymmetric M+A pair that gives the reallocator room
// to act.
func smraQueue() []sched.QueuedApp {
	m := testkit.MiniM()
	m.CTAs *= 4
	a := testkit.MiniA()
	a.CTAs *= 4
	return []sched.QueuedApp{
		{Params: m, Class: classify.ClassM, Arrival: 0},
		{Params: a, Class: classify.ClassA, Arrival: 1},
	}
}

func smraRun(b *testing.B, mutate func(*sched.SMRAConfig)) uint64 {
	b.Helper()
	cfg := testkit.Config()
	m := &interference.Matrix{}
	for x := range m.Slowdown {
		for y := range m.Slowdown[x] {
			m.Slowdown[x][y] = 2.2
			m.Samples[x][y] = 1
		}
	}
	s := sched.New(cfg, profile.New(cfg), m)
	sc := sched.DefaultSMRAConfig(cfg)
	sc.MinSMs = 1
	sc.MoveSMs = 1
	sc.TCCycles = 1500
	if mutate != nil {
		mutate(&sc)
	}
	s.SetSMRAConfig(sc)
	rep, err := s.Run(smraQueue(), 2, sched.ILPSMRA)
	if err != nil {
		b.Fatal(err)
	}
	return rep.TotalCycles
}

// BenchmarkAblationSMRAThresholds sweeps the Algorithm 1 scoring
// thresholds against the defaults.
func BenchmarkAblationSMRAThresholds(b *testing.B) {
	var base, lax uint64
	for i := 0; i < b.N; i++ {
		base = smraRun(b, nil)
		lax = smraRun(b, func(c *sched.SMRAConfig) {
			c.IPCThrPerSM /= 4 // scores almost nobody: reallocation disabled in practice
			c.BWThrFraction = 0.95
		})
	}
	b.ReportMetric(float64(lax)/float64(base), "lax/default-cycles")
}

// BenchmarkAblationSMRAPeriod contrasts a slow reallocation period (TC)
// with the default: the drain-then-transfer handoff only pays off when
// decisions come often enough.
func BenchmarkAblationSMRAPeriod(b *testing.B) {
	var fast, slow uint64
	for i := 0; i < b.N; i++ {
		fast = smraRun(b, nil)
		slow = smraRun(b, func(c *sched.SMRAConfig) { c.TCCycles = 50_000 })
	}
	b.ReportMetric(float64(slow)/float64(fast), "slowTC/fastTC-cycles")
}

// --- Fleet engine benchmarks -------------------------------------------
// These calibrate the miniature testkit universe once (about a second)
// and then exercise the fleet's indexed event core and completion
// engines; they run even in -short mode so CI smokes the whole path.

var (
	fleetPipeOnce sync.Once
	fleetPipe     *core.Pipeline
	fleetPipeErr  error
)

// fleetBenchPipeline calibrates (once) a pipeline over the testkit
// universe for the fleet benchmarks.
func fleetBenchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	fleetPipeOnce.Do(func() {
		p, err := core.New(testkit.Config())
		if err != nil {
			fleetPipeErr = err
			return
		}
		if err := p.Init(testkit.Universe()); err != nil {
			fleetPipeErr = err
			return
		}
		fleetPipe = p
	})
	if fleetPipeErr != nil {
		b.Fatal(fleetPipeErr)
	}
	return fleetPipe
}

func fleetBenchNames() []string { return []string{"miniM", "miniMC", "miniC", "miniA"} }

// BenchmarkFleetDispatch lives in internal/fleet (alloc_test.go): the
// steady-state dispatch round it times needs package-internal access to
// exclude per-run setup, which is what lets -benchmem pin its hot loop
// at 0 allocs/op.

// fleetRunBenchArrivals is the shared 1k-job traffic for the engine
// comparison; fleetRunBenchConfig the shared fleet shape.
func fleetRunBenchArrivals(b *testing.B) []fleet.Arrival {
	b.Helper()
	arr, err := fleet.ArrivalConfig{Kind: fleet.Poisson, Jobs: 1000, Rate: 1, Seed: 1}.Generate(fleetBenchNames())
	if err != nil {
		b.Fatal(err)
	}
	return arr
}

func fleetRunBenchConfig(pipe *core.Pipeline, engine fleet.EngineMode) fleet.Config {
	return fleet.Config{
		Devices: []fleet.DeviceSpec{{Pipe: pipe, Count: 4}},
		NC:      2, Policy: sched.ILP, Engine: engine,
	}
}

var (
	fleetCycleRefOnce sync.Once
	fleetCycleRefNs   float64
	fleetCycleRefErr  error
)

// fleetCycleReference times one Cycle-engine run of the shared 1k-job
// configuration on a freshly calibrated pipeline (cold group memo, the
// cost a first run pays; calibration itself excluded). Computed once —
// the benchmark function is invoked several times while the framework
// ramps b.N, and the reference must not be re-paid on every ramp step.
func fleetCycleReference(b *testing.B) float64 {
	b.Helper()
	arr := fleetRunBenchArrivals(b)
	fleetCycleRefOnce.Do(func() {
		fresh, err := core.New(testkit.Config())
		if err != nil {
			fleetCycleRefErr = err
			return
		}
		if err := fresh.Init(testkit.Universe()); err != nil {
			fleetCycleRefErr = err
			return
		}
		start := time.Now()
		f, err := fleet.New(fleetRunBenchConfig(fresh, fleet.Cycle))
		if err != nil {
			fleetCycleRefErr = err
			return
		}
		if _, err := f.Run(arr); err != nil {
			fleetCycleRefErr = err
			return
		}
		fleetCycleRefNs = float64(time.Since(start).Nanoseconds())
	})
	if fleetCycleRefErr != nil {
		b.Fatal(fleetCycleRefErr)
	}
	return fleetCycleRefNs
}

// BenchmarkFleetRunModeled measures the Modeled engine on a 1k-job
// fleet configuration and reports how many times cheaper it is than the
// Cycle engine on the identical configuration and traffic — the
// engine-mode acceptance ratio tracked in BENCH_*.json.
func BenchmarkFleetRunModeled(b *testing.B) {
	p := fleetBenchPipeline(b)
	arr := fleetRunBenchArrivals(b)
	cycleNs := fleetCycleReference(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(fleetRunBenchConfig(p, fleet.Modeled))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(arr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	modeledNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(cycleNs/modeledNs, "cycle/modeled-x")
	b.ReportMetric(modeledNs/1000, "ns/job")
}

// --- Substrate micro-benchmarks ----------------------------------------

// newSaturatedDevice builds a full device running a long streaming
// kernel, warmed into steady state.
func newSaturatedDevice(cfg config.GPUConfig) (*gpu.Device, error) {
	d, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(kernel.Params{
		Name: "steady", CTAs: 100000, WarpsPerCTA: 6, InstrsPerWarp: 100000,
		MemEvery: 5, Pattern: kernel.PatternStream, CoalescedLines: 4,
		FootprintBytes: 64 << 20, Seed: 9,
	}, cfg.L1.LineBytes)
	if err != nil {
		return nil, err
	}
	sms := make([]int, cfg.NumSMs)
	for i := range sms {
		sms[i] = i
	}
	if _, err := d.Launch(k, sms); err != nil {
		return nil, err
	}
	for i := 0; i < 2000; i++ {
		d.Step()
	}
	return d, nil
}

func BenchmarkDeviceStepSaturated(b *testing.B) {
	cfg := config.GTX480()
	d, err := newSaturatedDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
}

func BenchmarkSoloProfileMiniKernel(b *testing.B) {
	cfg := testkit.Config()
	for i := 0; i < b.N; i++ {
		prof := profile.New(cfg)
		if _, err := prof.Run(testkit.MiniA(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifySuite(b *testing.B) {
	if testing.Short() {
		b.Skip("profiles the full workload suite on GTX480; skipped in -short")
	}
	cfg := config.GTX480()
	prof := profile.New(cfg)
	profiles, err := prof.RunAll(workloads.All(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := classify.CalibrateThresholds(cfg, profiles)
		classify.Table(th, profiles)
	}
}
