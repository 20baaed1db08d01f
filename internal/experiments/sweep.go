package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// FleetSweep is the sweep harness's smoke scenario: a small dispatch ×
// SLO grid (the FleetSLO ablation's corners) executed through
// internal/sweep's parallel runner instead of hand-driven loops, then
// folded into the usual artifact table — one column per grid cell, one
// row per headline metric. It demonstrates (and exercises end to end)
// exactly what cmd/sweep does at scale: grid expansion, shared traffic
// across cells, a bounded worker pool, and deterministic cell order.
func (s *Suite) FleetSweep() (Artifact, error) {
	const (
		devices     = 4
		jobs        = 48
		latencyFrac = 0.15
	)
	roster := fmt.Sprintf("%dx%s", devices, s.P.Config().Name)
	g := sweep.Grid{
		Policies:    []string{"fcfs", "ilp-smra"},
		Engines:     []string{"modeled"},
		Rosters:     []string{roster},
		Arrivals:    []string{"poisson"},
		SLOs:        []string{"off", "preempt"},
		Jobs:        jobs,
		Rate:        0.8,
		LatencyFrac: latencyFrac,
		Deadline:    2 * s.meanSoloCycles(), // scaled from the calibrated universe, as in FleetSLO
		Seed:        rng.Hash2(s.Seed, 0x53EE9),
	}
	r := sweep.Runner{
		Names: workloads.Names,
		Roster: func(string) ([]fleet.DeviceSpec, error) {
			return []fleet.DeviceSpec{{Pipe: s.P, Count: devices}}, nil
		},
	}
	art, err := r.Run(g)
	if err != nil {
		return Artifact{}, err
	}

	a := Artifact{
		ID:    "FleetSweep",
		Title: fmt.Sprintf("sweep harness smoke: policy × SLO grid, %d devices, %d jobs, modeled engine (beyond the paper)", devices, jobs),
	}
	// One column per cell, labeled policy/slo (the axes that vary).
	pCol, sCol := paramIndex("policy"), paramIndex("slo")
	for _, c := range art.Cells {
		a.Columns = append(a.Columns, c.Params[pCol]+"/"+c.Params[sCol])
	}
	for _, m := range []string{"throughput", "mean_util", "turn_p95_kcyc", "miss_rate", "evictions"} {
		row := Row{Label: m}
		for _, c := range art.Cells {
			v, ok := metricValue(art, c, m)
			if !ok {
				return Artifact{}, fmt.Errorf("FleetSweep: metric %q missing from sweep artifact", m)
			}
			row.Values = append(row.Values, v)
		}
		a.Rows = append(a.Rows, row)
	}
	// Headline: what preemption buys the best policy's latency class.
	off, err := a.Value("miss_rate", "ilp-smra/off")
	if err != nil {
		return Artifact{}, err
	}
	pre, err := a.Value("miss_rate", "ilp-smra/preempt")
	if err != nil {
		return Artifact{}, err
	}
	a.Notes = append(a.Notes, fmt.Sprintf("ilp-smra deadline-miss rate: %.1f%% class-blind -> %.1f%% preemptive (identical traffic)", 100*off, 100*pre))
	return a, nil
}

// paramIndex locates a canonical parameter column (-1 never happens for
// sweep.ParamColumns names).
func paramIndex(name string) int {
	for i, p := range sweep.ParamColumns {
		if p == name {
			return i
		}
	}
	return -1
}

// metricValue reads one metric of one cell from a sweep artifact.
func metricValue(art *sweep.Artifact, c sweep.CellResult, name string) (float64, bool) {
	for i, m := range art.Metrics {
		if m == name && i < len(c.Values) {
			return c.Values[i], true
		}
	}
	return 0, false
}
