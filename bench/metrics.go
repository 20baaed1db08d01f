package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef describes one reported metric. Bound is the share of the
// base median by which the metric may worsen before -compare calls it a
// regression; 0 means any worsening is one (simulated results, which
// repeat exactly, and the error rate). A perSeed metric is a function of
// the op's seed alone, so it is recorded and compared seed by seed.
type metricDef struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound"`
	perSeed bool
}

// endToEnd lists the end-to-end metrics in report order, with every
// regression bound -compare applies. The first five exist on every
// workload and never read 0, so BENCHMARK.json lists them, with these
// bounds (a test keeps the two equal); the rest apply to some workloads
// only (see workload.metrics) or read 0. Host times are per-op; sim_*
// values are simulated-time results and repeat exactly for a seed.
// Host-time bounds are 25% because runs on a shared 2-vCPU host spread
// by up to 22%; see README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "maxrss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "sim_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "error_rate", Unit: "failed/attempted", Better: "lower"},
	{Name: "sim_ipc", Unit: "instr/cycle", Better: "higher", perSeed: true},
	{Name: "sim_turnaround_p50_kcyc", Unit: "kcycles", Better: "lower", perSeed: true},
	{Name: "sim_turnaround_tail_kcyc", Unit: "kcycles", Better: "lower", perSeed: true},
	{Name: "sim_miss_rate", Unit: "fraction", Better: "lower", perSeed: true},
}

// lookup finds a metric definition by name.
func lookup(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// perLayer lists the per-layer metrics of a traced run, in report order.
// Every traced run reports all of them; a layer the workload never
// calls reports 0. Names are <layer>.<metric>, layers named after the
// repository's modules.
var perLayer = []metricDef{
	{Name: "profile.wall_s", Unit: "s", Better: "lower"},
	{Name: "profile.cpu_s", Unit: "s", Better: "lower"},
	{Name: "profile.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "profile.sim_mcycles", Unit: "Mcycles", Better: "lower"},
	{Name: "profile.mcycles_per_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "profile.mcycles_per_s.M", Unit: "Mcycles/s", Better: "higher"},
	{Name: "profile.mcycles_per_s.MC", Unit: "Mcycles/s", Better: "higher"},
	{Name: "profile.mcycles_per_s.C", Unit: "Mcycles/s", Better: "higher"},
	{Name: "profile.mcycles_per_s.A", Unit: "Mcycles/s", Better: "higher"},
	{Name: "classify.wall_s", Unit: "s", Better: "lower"},
	{Name: "interference.wall_s", Unit: "s", Better: "lower"},
	{Name: "interference.cpu_s", Unit: "s", Better: "lower"},
	{Name: "interference.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "interference.pairs", Unit: "count", Better: "lower"},
	{Name: "interference.sim_mcycles", Unit: "Mcycles", Better: "lower"},
	{Name: "interference.mcycles_per_cpu_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "interference.parallel_eff", Unit: "fraction", Better: "higher"},
	{Name: "core.load_s", Unit: "s", Better: "lower"},
	{Name: "fleet.arrivals_s", Unit: "s", Better: "lower"},
	{Name: "fleet.new_s", Unit: "s", Better: "lower"},
	{Name: "fleet.run.wall_s", Unit: "s", Better: "lower"},
	{Name: "fleet.run.cpu_s", Unit: "s", Better: "lower"},
	{Name: "fleet.run.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "fleet.run.parallel_eff", Unit: "fraction", Better: "higher"},
	{Name: "fleet.run.ns_per_job", Unit: "ns", Better: "lower"},
	{Name: "fleet.run.ns_per_submission", Unit: "ns", Better: "lower"},
	{Name: "fleet.run.gc_count", Unit: "count", Better: "lower"},
	{Name: "fleet.run.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.group_sims", Unit: "count", Better: "lower"},
	{Name: "sched.groups_dispatched", Unit: "count", Better: "lower"},
	{Name: "sched.sim_useful_frac", Unit: "fraction", Better: "higher"},
	{Name: "sched.sim_mcycles", Unit: "Mcycles", Better: "lower"},
	{Name: "sched.mcycles_per_cpu_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "sched.smra_moves", Unit: "count", Better: "lower"},
	{Name: "fleet.groups", Unit: "count", Better: "lower"},
	{Name: "fleet.ilp_group_frac", Unit: "fraction", Better: "higher"},
	{Name: "fleet.evictions", Unit: "count", Better: "lower"},
	{Name: "fleet.evict_waste_frac", Unit: "fraction", Better: "lower"},
	{Name: "fleet.submitted", Unit: "count", Better: "higher"},
	{Name: "fleet.reject_frac", Unit: "fraction", Better: "lower"},
	{Name: "fleet.retry_frac", Unit: "fraction", Better: "lower"},
	{Name: "fleet.abandon_frac", Unit: "fraction", Better: "lower"},
	{Name: "fleet.chaos_evictions", Unit: "count", Better: "lower"},
	{Name: "fleet.provisions", Unit: "count", Better: "lower"},
	{Name: "obs.rows", Unit: "count", Better: "lower"},
	{Name: "stats.summary_s", Unit: "s", Better: "lower"},
	{Name: "op.self_s", Unit: "s", Better: "lower"},
	{Name: "trace.run_s", Unit: "s", Better: "lower"},
}

// manifest is the part of BENCHMARK.json the benchmark reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json.
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &m, nil
}

// stat is the distribution of one metric over a set's samples. Runs
// holds the median of each run, the unit of run-to-run noise that
// -compare judges by; BySeed holds a perSeed metric's value per op seed.
type stat struct {
	Name   string             `json:"name"`
	Unit   string             `json:"unit"`
	N      int                `json:"n"`
	Median float64            `json:"median"`
	Q1     float64            `json:"q1"`
	Q3     float64            `json:"q3"`
	Min    float64            `json:"min"`
	Max    float64            `json:"max"`
	Runs   []float64          `json:"run_medians,omitempty"`
	BySeed map[string]float64 `json:"by_seed,omitempty"`
}

// summarize computes a stat. Quartiles follow Python's
// statistics.quantiles(n=4) default (exclusive) method, so spreads read
// the same as any script that recomputes them from raw values.
func summarize(name, unit string, samples []float64) stat {
	s := stat{Name: name, Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Median = median(v)
	s.Q1, s.Q3 = v[0], v[0]
	if n := len(v); n >= 2 {
		s.Q1, s.Q3 = quartile(v, 1), quartile(v, 3)
	}
	return s
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartile is the i-th cut point (1 or 3) of the exclusive method over
// sorted values (len >= 2).
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// medianOf is the median of unsorted samples.
func medianOf(samples []float64) float64 {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	return median(v)
}
