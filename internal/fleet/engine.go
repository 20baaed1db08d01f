package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/match"
	"repro/internal/sched"
	"repro/internal/stats"
)

// EngineMode selects how the fleet learns a dispatched group's
// completion.
type EngineMode int

const (
	// Cycle simulates every dispatched group cycle-accurately through
	// sched.RunGroup — the reference engine, byte-identical to the
	// pre-engine-mode fleet.
	Cycle EngineMode = iota
	// Modeled computes group completions analytically from the solo
	// profiles and the interference matrix (each member's solo duration
	// scaled by its match.MemberSlowdown under the group's class
	// pattern) with zero cycle-accurate simulations. This is the same
	// model the dispatcher already trusts for completion lower bounds,
	// preemption would-miss tests and checkpoint accounting — promoted
	// from advisory to authoritative, which is what lets a 256-device,
	// 100k-job run finish in seconds.
	Modeled
	// Hybrid runs the first Config.HybridWarm occurrences of each
	// (device type, group composition) cycle-accurately, calibrates the
	// analytic model against them, and serves every later occurrence
	// from the calibrated model. Result.Summary reports the model's
	// fidelity delta over the calibration runs.
	Hybrid
)

// String names the mode as the CLI spells it.
func (e EngineMode) String() string {
	switch e {
	case Cycle:
		return "cycle"
	case Modeled:
		return "modeled"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("EngineMode(%d)", int(e))
	}
}

// ParseEngine parses the CLI spelling.
func ParseEngine(s string) (EngineMode, error) {
	switch strings.ToLower(s) {
	case "cycle", "":
		return Cycle, nil
	case "modeled", "model":
		return Modeled, nil
	case "hybrid":
		return Hybrid, nil
	default:
		return 0, fmt.Errorf("fleet: unknown engine %q (cycle, modeled, hybrid)", s)
	}
}

// DefaultHybridWarm is how many occurrences of each (device type,
// composition) the Hybrid engine simulates before trusting the model.
const DefaultHybridWarm = 2

// modelReport predicts a group's execution analytically into rep, in
// the shape RunGroup would report it: per-member end cycles and retired
// instructions. Member i's end is its solo duration scaled by the
// interference matrix's predicted slowdown under the group's class
// pattern (Equation 3.4's s_i ingredient); a lone member runs at solo
// speed exactly, so Serial dispatch is identical under every engine.
// calib scales the modeled ends (1 = the raw model; the Hybrid engine
// passes the mean observed actual/model ratio for the composition).
// The report's buffers are reused and the class pattern lands in the
// dispatcher's scratch, so a modeled dispatch into a recycled flight
// allocates nothing once the pools are warm.
//
//simlint:hotpath
func (d *dispatcher) modelReport(rep *sched.GroupReport, members []*job, t int, calib float64) error {
	m := d.f.types[t].Matrix()
	d.patBuf = d.patBuf[:0]
	if m != nil && len(members) > 1 {
		for _, j := range members {
			d.patBuf = append(d.patBuf, j.class(t))
		}
	}
	pat := d.patBuf
	rep.Apps = rep.Apps[:0]
	rep.Classes = rep.Classes[:0]
	rep.Stats = rep.Stats[:0]
	rep.Cycles = 0
	rep.SMMoves = 0
	for i, j := range members {
		sp := j.app.solo[t]
		if !sp.ok {
			return d.missingSolo(j, t)
		}
		s := 1.0
		if len(pat) > 0 {
			s = match.MemberSlowdown(m, pat, i)
		}
		end := uint64(math.Ceil(float64(sp.cycles) * s * calib))
		if end < 1 {
			end = 1
		}
		rep.Apps = append(rep.Apps, j.name())
		rep.Classes = append(rep.Classes, j.class(t))
		rep.Stats = append(rep.Stats, stats.App{
			Name:               j.name(),
			ThreadInstructions: sp.instrs,
			EndCycle:           end,
			Done:               true,
		})
		if end > rep.Cycles {
			rep.Cycles = end
		}
	}
	return nil
}

// missingSolo builds the cold-path error for an uncalibrated member
// (kept out of the hot-path functions so they stay fmt-free).
func (d *dispatcher) missingSolo(j *job, t int) error {
	return fmt.Errorf("fleet: no solo profile for %q on %s (modeled engine needs a calibrated universe)",
		j.name(), d.f.types[t].Config().Name)
}

// commitModeled resolves a modeled flight at dispatch time: one
// analytic report and one completion-heap event cover the whole group,
// where the group's members each used to pay their own allocations.
// The flight is born resolved, so nothing ever waits on it.
//
//simlint:hotpath
func (d *dispatcher) commitModeled(fl *inflight, now uint64, calib float64, resolved *flightHeap) error {
	if err := d.modelReport(&fl.rep, fl.jobs, fl.typ, calib); err != nil {
		return err
	}
	fl.modeled = true
	fl.state = flightResolved
	fl.complete = now + d.f.flightCycles(fl)
	fl.earliest = fl.complete
	resolved.push(fl)
	return nil
}

// compositionKey identifies a (device type, group composition) for the
// Hybrid engine's calibration table: the member names sorted, so the
// same multiset dispatched in a different draw order shares one
// calibration.
func compositionKey(members []*job, t int) string {
	names := make([]string, len(members))
	for i, j := range members {
		names[i] = j.name()
	}
	sort.Strings(names)
	return fmt.Sprintf("t%d:%s", t, strings.Join(names, "|"))
}

// hybridCal accumulates the Hybrid engine's per-composition
// calibration: how many cycle-accurate occurrences ran (or are in
// flight), and the observed actual/model ratios from the resolved ones.
type hybridCal struct {
	// started counts cycle-accurate dispatches of this composition,
	// incremented at dispatch time so concurrent warm runs of one
	// composition cannot overshoot HybridWarm.
	started int
	// n, ratio and delta aggregate over resolved calibration runs:
	// ratio sums the per-run mean actual/model member-end ratio (the
	// correction later modeled dispatches apply), delta the per-run mean
	// absolute relative error (the fidelity the summary reports).
	n     int
	ratio float64
	delta float64
}

// calibration returns the model correction for a composition: the mean
// observed actual/model ratio, or 1 before any calibration run
// resolved.
func (c *hybridCal) calibration() float64 {
	if c == nil || c.n == 0 {
		return 1
	}
	return c.ratio / float64(c.n)
}

// observe folds one resolved cycle-accurate run into the calibration:
// actual and model are the per-member end cycles of the same group.
func (c *hybridCal) observe(actual, model []uint64) {
	if len(actual) == 0 || len(actual) != len(model) {
		return
	}
	ratio, delta := 0.0, 0.0
	for i := range actual {
		a, m := float64(actual[i]), float64(model[i])
		if a <= 0 || m <= 0 {
			return
		}
		ratio += a / m
		delta += math.Abs(a-m) / a
	}
	n := float64(len(actual))
	c.ratio += ratio / n
	c.delta += delta / n
	c.n++
}
