// Root benchmark rungs: the Modeled fleet engine against the Cycle
// engine on one 1k-job configuration, one Device.Step of a saturated
// GTX480, and one solo profile of a testkit kernel. Each times code
// users wait on, and each runs in -short mode, so CI's one-iteration
// benchmark smoke exercises all three. The end-to-end workloads and the
// performance trajectory live in the bench module (bench/).
package repro

import (
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/testkit"
)

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
// Cycle engine on the identical configuration and traffic.
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
