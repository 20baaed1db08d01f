// Package sweep expands a scenario grid — dispatch policy × completion
// engine × roster × arrival process × SLO mode — into fleet runs, fans
// them over a bounded worker pool, and collects every cell's summary
// metrics into one tidy artifact (CSV or JSON) with the cell parameters
// as leading columns. It is the Go-native analogue of mgpusim's
// collect-stats/compare-stats scripting: one command produces the whole
// comparison table, and Delta diffs two such artifacts cell by cell.
//
// Determinism carries through: the grid expands in a fixed order, every
// arrival process is generated once per kind from a seed derived only
// from the grid seed, cells of the same arrival kind see the very same
// traffic (so differences between cells are pure configuration), and
// the artifact's cells appear in grid order regardless of which worker
// finished first — the same grid twice is byte-identical output.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/fleet"
	"repro/internal/sched"
)

// Grid is a sweep specification: the axes to cross plus the scalar
// parameters every cell shares. The JSON form (ParseGrid) is what
// cmd/sweep's -config flag reads.
type Grid struct {
	// Policies, Engines, Rosters, Arrivals and SLOs are the grid axes,
	// spelled exactly like the cmd/fleet flags (-policy, -engine,
	// -fleet, -arrivals, -slo). Empty axes default to a single entry:
	// ilp-smra, modeled, 4xGTX480, poisson, off.
	Policies []string `json:"policies"`
	Engines  []string `json:"engines"`
	Rosters  []string `json:"rosters"`
	Arrivals []string `json:"arrivals"`
	SLOs     []string `json:"slos"`
	// Admissions and Autoscales are the control-surface axes, spelled
	// like fleet.ParseAdmission / fleet.ParseAutoscale: "off",
	// "reject[-modeled]:MAXWAIT" or "degrade[-modeled]:MAXWAIT", and
	// "off" or "MIN:MAX". Empty axes default to off — existing grids are
	// unchanged.
	Admissions []string `json:"admissions"`
	Autoscales []string `json:"autoscales"`
	// Chaoses is the failure-injection axis, spelled like
	// fleet.ParseChaosSpec: "off", a "KIND@CYCLE:DEV,..." trace, or
	// "mtbf:MTBF:MTTR[:HORIZON]" for the generator (seeded from the grid
	// seed). Empty defaults to off.
	Chaoses []string `json:"chaoses"`
	// NC, Jobs, Rate, LatencyFrac, Deadline, Aging and HybridWarm are
	// shared by every cell (zero picks the cmd/fleet defaults: NC 2,
	// 32 jobs, rate 0.5/kcycle).
	NC          int     `json:"nc"`
	Jobs        int     `json:"jobs"`
	Rate        float64 `json:"rate"`
	LatencyFrac float64 `json:"latency_frac"`
	Deadline    uint64  `json:"deadline"`
	Aging       float64 `json:"aging"`
	HybridWarm  int     `json:"hybrid_warm"`
	// Clients, Requests, Think, Timeout and Retries shape closed-loop
	// cells (an "closed" entry on the Arrivals axis): client-pool count,
	// requests per client, mean think time, per-request patience and the
	// retry budget. Zero picks the fleet defaults (8 clients). Open-loop
	// cells ignore them.
	Clients  int     `json:"clients"`
	Requests int     `json:"requests"`
	Think    float64 `json:"think"`
	Timeout  uint64  `json:"timeout"`
	Retries  int     `json:"retries"`
	// Seed seeds the arrival streams (one derived stream per arrival
	// kind, so every cell of a kind replays identical traffic).
	Seed uint64 `json:"seed"`
}

// ParseGrid decodes a grid from its JSON form. An unknown key is an
// error that names it, so a misspelled axis fails the sweep instead of
// silently sweeping that axis's default.
func ParseGrid(data []byte) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: grid: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Grid{}, fmt.Errorf("sweep: grid: data after the JSON object")
	}
	return g, nil
}

// withDefaults resolves empty axes and zero scalars.
func (g Grid) withDefaults() Grid {
	def := func(axis []string, v string) []string {
		if len(axis) == 0 {
			return []string{v}
		}
		return axis
	}
	g.Policies = def(g.Policies, "ilp-smra")
	g.Engines = def(g.Engines, "modeled")
	g.Rosters = def(g.Rosters, "4xGTX480")
	g.Arrivals = def(g.Arrivals, "poisson")
	g.SLOs = def(g.SLOs, "off")
	g.Admissions = def(g.Admissions, "off")
	g.Autoscales = def(g.Autoscales, "off")
	g.Chaoses = def(g.Chaoses, "off")
	if g.NC == 0 {
		g.NC = 2
	}
	if g.Clients == 0 {
		g.Clients = 8
	}
	if g.Jobs == 0 {
		g.Jobs = 32
	}
	if g.Rate == 0 {
		g.Rate = 0.5
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	return g
}

// Cell is one fully-resolved grid point.
type Cell struct {
	Policy        sched.Policy
	Engine        fleet.EngineMode
	Roster        string
	Arrival       fleet.ArrivalKind
	SLOName       string
	SLO           fleet.SLOConfig
	AdmissionName string
	Admission     fleet.AdmissionConfig
	AutoscaleName string
	Autoscale     fleet.AutoscaleConfig
	ChaosName     string
	Chaos         fleet.ChaosConfig
}

// ParamColumns names Cell.Params' entries, in order — the artifact's
// leading columns, and how Delta identifies the same cell across two
// artifacts.
var ParamColumns = []string{"policy", "engine", "roster", "arrivals", "slo", "admission", "autoscale", "chaos"}

// Params is the cell's identity as column values, in ParamColumns
// order. Policies use the CLI spelling (fcfs, ilp-smra) rather than the
// paper's display names (Even/FCFS), so an artifact's parameter columns
// feed straight back into a grid — and two artifacts key the same cell
// identically even when their grids used different aliases.
func (c Cell) Params() []string {
	return []string{
		policyName(c.Policy), c.Engine.String(), c.Roster, c.Arrival.String(),
		c.SLOName, c.AdmissionName, c.AutoscaleName, c.ChaosName,
	}
}

// policyName is the canonical CLI spelling of a policy (Policy.String
// renders the paper's display names instead).
func policyName(p sched.Policy) string {
	switch p {
	case sched.Serial:
		return "serial"
	case sched.FCFS:
		return "fcfs"
	case sched.ProfileBased:
		return "profile"
	case sched.ILP:
		return "ilp"
	case sched.ILPSMRA:
		return "ilp-smra"
	default:
		return strings.ToLower(p.String())
	}
}

// Expand resolves the grid into its cells, validating every axis entry
// up front (a typo fails the whole sweep before any cell runs). The
// order is fixed — roster, then arrivals, then policy, then engine,
// then SLO mode, then admission, then autoscale, then chaos — so the
// artifact's rows are reproducible.
func (g Grid) Expand() ([]Cell, error) {
	g = g.withDefaults()
	policies := make([]sched.Policy, len(g.Policies))
	for i, s := range g.Policies {
		p, err := sched.ParsePolicy(s)
		if err != nil {
			return nil, err
		}
		policies[i] = p
	}
	engines := make([]fleet.EngineMode, len(g.Engines))
	for i, s := range g.Engines {
		e, err := fleet.ParseEngine(s)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	arrivals := make([]fleet.ArrivalKind, len(g.Arrivals))
	for i, s := range g.Arrivals {
		k, err := fleet.ParseArrivalKind(s)
		if err != nil {
			return nil, err
		}
		if k == fleet.Trace {
			return nil, fmt.Errorf("sweep: trace arrivals need per-entry data; grids sweep generated processes (poisson, bursty)")
		}
		arrivals[i] = k
	}
	slos := make([]fleet.SLOConfig, len(g.SLOs))
	for i, s := range g.SLOs {
		cfg, err := fleet.ParseSLOMode(s)
		if err != nil {
			return nil, err
		}
		slos[i] = cfg
	}
	admissions := make([]fleet.AdmissionConfig, len(g.Admissions))
	for i, s := range g.Admissions {
		cfg, err := fleet.ParseAdmission(s)
		if err != nil {
			return nil, err
		}
		admissions[i] = cfg
	}
	autoscales := make([]fleet.AutoscaleConfig, len(g.Autoscales))
	for i, s := range g.Autoscales {
		cfg, err := fleet.ParseAutoscale(s)
		if err != nil {
			return nil, err
		}
		autoscales[i] = cfg
	}
	chaoses := make([]fleet.ChaosConfig, len(g.Chaoses))
	for i, s := range g.Chaoses {
		cfg, err := fleet.ParseChaosSpec(s)
		if err != nil {
			return nil, err
		}
		// Generator cells draw their failure schedule from the grid seed,
		// so repeat sweeps stay byte-identical.
		cfg.Seed = g.Seed
		chaoses[i] = cfg
	}
	for _, r := range g.Rosters {
		if r == "" {
			return nil, fmt.Errorf("sweep: empty roster entry")
		}
	}
	var cells []Cell
	for _, roster := range g.Rosters {
		for _, arr := range arrivals {
			for _, pol := range policies {
				for _, eng := range engines {
					for si, slo := range slos {
						for ai, adm := range admissions {
							for oi, scale := range autoscales {
								for ci, chaos := range chaoses {
									name := strings.ToLower(g.Chaoses[ci])
									if name == "" {
										name = "off"
									}
									cells = append(cells, Cell{
										Policy:  pol,
										Engine:  eng,
										Roster:  roster,
										Arrival: arr,
										// Normalized spelling, so two artifacts key the
										// same cell identically whatever case the grid
										// used.
										SLOName:       strings.ToLower(g.SLOs[si]),
										SLO:           slo,
										AdmissionName: strings.ToLower(g.Admissions[ai]),
										Admission:     adm,
										AutoscaleName: strings.ToLower(g.Autoscales[oi]),
										Autoscale:     scale,
										ChaosName:     name,
										Chaos:         chaos,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// MetricColumns names every cell's collected metrics, in the order
// Metrics returns them. Cycle-valued metrics are reported in kilocycles
// to match the summary's spelling.
var MetricColumns = []string{
	"throughput", "makespan_kcyc", "mean_util",
	"wait_p50_kcyc", "wait_p95_kcyc", "wait_p99_kcyc",
	"turn_p50_kcyc", "turn_p95_kcyc", "turn_p99_kcyc",
	"latency_jobs", "misses", "miss_rate", "evictions", "wasted_kcyc",
	"groups", "groups_ilp", "groups_cycle", "groups_modeled",
	"submitted", "completed", "rejected", "degraded", "abandoned", "retried",
	"provisions", "decommissions",
	"failures", "drains", "restores", "chaos_evictions",
}

// Metrics projects one run's result onto MetricColumns. The control
// counters (submitted through decommissions) are zero on cells without
// a control surface — the submission ledger only runs when closed-loop
// traffic, admission control or the autoscaler is configured.
func Metrics(res fleet.Result) []float64 {
	st := res.Stats()
	wait, turn := st.Wait, st.Turnaround
	return []float64{
		res.Throughput(), float64(res.Makespan) / 1000, res.MeanUtilization(),
		wait.P50, wait.P95, wait.P99,
		turn.P50, turn.P95, turn.P99,
		float64(st.Latency), float64(st.Misses), st.MissRate,
		float64(len(res.Evictions)), float64(res.WastedCycles()) / 1000,
		float64(res.Groups), float64(res.ILPGroups), float64(res.CycleGroups), float64(res.ModeledGroups),
		float64(res.Submitted), float64(st.Completed), float64(res.Rejected),
		float64(res.Degraded), float64(res.Abandoned), float64(res.Retried),
		float64(res.Provisions), float64(res.Decommissions),
		float64(res.Failures), float64(res.Drains), float64(res.Restores),
		float64(res.ChaosEvictions),
	}
}
