package sweep

import (
	"fmt"
	"sync"

	"repro/internal/fleet"
	"repro/internal/par"
	"repro/internal/rng"
)

// Runner executes a grid's cells over a bounded worker pool.
type Runner struct {
	// Workers bounds concurrent cells (0 = NumCPU). Each cell is a full
	// fleet run; under the modeled engine a cell is pure computation, so
	// one worker per core is the sweet spot.
	Workers int
	// Roster resolves a grid roster label to calibrated device specs.
	// cmd/sweep parses labels like "2xGTX480,2xSmall-8SM" and calibrates
	// via the disk cache; tests and the experiments scenario resolve
	// labels to pre-built testkit pipelines instead.
	Roster func(label string) ([]fleet.DeviceSpec, error)
	// Names is the application universe arrivals draw from.
	Names []string
	// Progress, when set, observes each completed cell (called from
	// worker goroutines; must be safe for concurrent use).
	Progress func(done, total int)
}

// Run expands and executes the grid, returning one artifact with a row
// per cell in grid order. Rosters are resolved once per distinct label
// before any cell runs (calibration is sequential and shared), and each
// arrival kind's stream is generated once and replayed by every cell of
// that kind — differences between cells are pure configuration, never
// traffic. The first cell error aborts the sweep.
func (r Runner) Run(g Grid) (*Artifact, error) {
	g = g.withDefaults()
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	if r.Roster == nil {
		return nil, fmt.Errorf("sweep: Runner needs a roster resolver")
	}
	if len(r.Names) == 0 {
		return nil, fmt.Errorf("sweep: Runner needs an application universe")
	}
	// Resolve every distinct roster up front. Calibration hits the disk
	// cache (or runs the campaign once); doing it here keeps the worker
	// pool free of the one genuinely serial, expensive step.
	rosters := make(map[string][]fleet.DeviceSpec)
	for _, c := range cells {
		if _, ok := rosters[c.Roster]; ok {
			continue
		}
		specs, err := r.Roster(c.Roster)
		if err != nil {
			return nil, fmt.Errorf("sweep: roster %q: %w", c.Roster, err)
		}
		rosters[c.Roster] = specs
	}
	// One arrival stream per kind, seeded from the grid seed and the
	// kind alone — every cell of a kind replays identical traffic.
	// Closed-loop cells have no stream: their traffic is generated
	// inside the run, seeded the same way, so every closed cell's
	// clients also replay identical draws.
	streams := make(map[fleet.ArrivalKind][]fleet.Arrival)
	for _, c := range cells {
		if _, ok := streams[c.Arrival]; ok || c.Arrival == fleet.ClosedLoop {
			continue
		}
		acfg := fleet.ArrivalConfig{
			Kind: c.Arrival, Jobs: g.Jobs, Rate: g.Rate,
			LatencyFrac: g.LatencyFrac, Deadline: g.Deadline,
			Seed: rng.Hash2(g.Seed, uint64(c.Arrival)+1),
		}
		arr, err := acfg.Generate(r.Names)
		if err != nil {
			return nil, fmt.Errorf("sweep: %v arrivals: %w", c.Arrival, err)
		}
		streams[c.Arrival] = arr
	}

	// Results land at their cell's index, so the artifact's order is the
	// grid's regardless of worker scheduling.
	values := make([][]float64, len(cells))
	var done int
	var mu sync.Mutex
	if err := par.Do(len(cells), r.Workers, func(i int) error {
		var err error
		values[i], err = r.runCell(g, cells[i], rosters[cells[i].Roster], streams[cells[i].Arrival])
		if r.Progress != nil {
			mu.Lock()
			done++
			r.Progress(done, len(cells))
			mu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("sweep: cell %v: %w", cells[i].Params(), err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	art := &Artifact{Params: append([]string(nil), ParamColumns...), Metrics: append([]string(nil), MetricColumns...)}
	for i, c := range cells {
		art.Cells = append(art.Cells, CellResult{Params: c.Params(), Values: values[i]})
	}
	return art, nil
}

// runCell executes one grid point.
func (r Runner) runCell(g Grid, c Cell, roster []fleet.DeviceSpec, arrivals []fleet.Arrival) ([]float64, error) {
	cfg := fleet.Config{
		Devices:    roster,
		NC:         g.NC,
		Policy:     c.Policy,
		Aging:      g.Aging,
		SLO:        c.SLO,
		Engine:     c.Engine,
		HybridWarm: g.HybridWarm,
		Admission:  c.Admission,
		Autoscale:  c.Autoscale,
		Chaos:      c.Chaos,
	}
	if c.Arrival == fleet.ClosedLoop {
		cfg.Closed = fleet.ClosedConfig{
			Enabled: true, Clients: g.Clients, Requests: g.Requests,
			Think: g.Think, Timeout: g.Timeout, Retries: g.Retries,
			LatencyFrac: g.LatencyFrac, Deadline: g.Deadline,
			Seed:     rng.Hash2(g.Seed, uint64(fleet.ClosedLoop)+1),
			Universe: r.Names,
		}
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := f.Run(arrivals)
	if err != nil {
		return nil, err
	}
	return Metrics(res), nil
}
