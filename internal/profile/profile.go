// Package profile runs applications solo on a simulated device and
// extracts the signature metrics the methodology consumes (Section
// 3.2.1): DRAM bandwidth, L2→L1 bandwidth, IPC, memory-to-compute ratio
// and device utilization. Results are memoized per (benchmark, SM
// count), since the experiment suite re-reads the same profiles many
// times. The profiler is safe for concurrent use: the online fleet
// dispatcher profiles from many scheduling goroutines at once, and
// duplicate concurrent requests for the same profile share one
// simulation.
package profile

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/memo"
	"repro/internal/par"
	"repro/internal/stats"
)

// Result is one solo profile.
type Result struct {
	stats.Metrics
	// Utilization is device throughput normalized to peak (Fig 1.2).
	Utilization float64
	// NumSMs is the core count the profile was taken at.
	NumSMs int
}

// String renders one profile row.
func (r Result) String() string {
	return fmt.Sprintf("%s util=%5.1f%% SMs=%d", r.Metrics, r.Utilization*100, r.NumSMs)
}

// MaxRunCycles bounds any single profiling simulation; exceeding it
// indicates a livelock and is reported as an error.
const MaxRunCycles = 50_000_000

// Profiler memoizes solo runs on one device configuration.
type Profiler struct {
	cfg  config.GPUConfig
	runs *memo.Table[Result]
}

// New builds a profiler for the configuration.
func New(cfg config.GPUConfig) *Profiler {
	return &Profiler{cfg: cfg, runs: memo.NewTable[Result]()}
}

// Config returns the profiler's device configuration.
func (p *Profiler) Config() config.GPUConfig { return p.cfg }

func key(name string, numSMs int) string { return fmt.Sprintf("%s/%d", name, numSMs) }

// Prime seeds the memo with an externally obtained full-device profile
// (e.g. restored from a calibration file), so later Run calls for the
// same application skip the simulation.
func (p *Profiler) Prime(name string, r Result) {
	numSMs := r.NumSMs
	if numSMs <= 0 || numSMs > p.cfg.NumSMs {
		numSMs = p.cfg.NumSMs
	}
	p.runs.Put(key(name, numSMs), r)
}

// Peek returns the memoized profile for (name, numSMs) without ever
// simulating (numSMs <= 0 selects all cores). The online fleet
// dispatcher uses it to bound group completion times cheaply.
func (p *Profiler) Peek(name string, numSMs int) (Result, bool) {
	if numSMs <= 0 || numSMs > p.cfg.NumSMs {
		numSMs = p.cfg.NumSMs
	}
	return p.runs.Get(key(name, numSMs))
}

// Run profiles params solo on the first numSMs cores of the device
// (numSMs <= 0 selects all cores).
func (p *Profiler) Run(params kernel.Params, numSMs int) (Result, error) {
	if numSMs <= 0 || numSMs > p.cfg.NumSMs {
		numSMs = p.cfg.NumSMs
	}
	return p.runs.Do(key(params.Name, numSMs), func() (Result, error) {
		return p.simulate(params, numSMs)
	})
}

// simulate performs the actual solo run (no memoization).
func (p *Profiler) simulate(params kernel.Params, numSMs int) (Result, error) {
	d, err := gpu.New(p.cfg)
	if err != nil {
		return Result{}, err
	}
	k, err := kernel.New(params, p.cfg.L1.LineBytes)
	if err != nil {
		return Result{}, err
	}
	sms := make([]int, numSMs)
	for i := range sms {
		sms[i] = i
	}
	h, err := d.Launch(k, sms)
	if err != nil {
		return Result{}, err
	}
	if err := d.Run(MaxRunCycles); err != nil {
		return Result{}, fmt.Errorf("profile %s on %d SMs: %w", params.Name, numSMs, err)
	}
	return Result{
		Metrics:     d.AppMetrics(h),
		Utilization: d.DeviceStats().Utilization(p.cfg),
		NumSMs:      numSMs,
	}, nil
}

// RunAll profiles a list of kernels at one core count on a pool of
// runtime.NumCPU() workers, returning the results in list order.
func (p *Profiler) RunAll(all []kernel.Params, numSMs int) ([]Result, error) {
	out := make([]Result, len(all))
	if err := par.Do(len(all), 0, func(i int) error {
		var err error
		out[i], err = p.Run(all[i], numSMs)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}
