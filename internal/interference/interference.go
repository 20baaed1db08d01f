// Package interference reproduces the paper's interference analysis
// (Section 3.2.2, Figure 3.4): every application is co-run with every
// other application on an evenly partitioned device, the slowdown of
// each relative to its solo full-device run is recorded, and the results
// are averaged per (class, co-runner class) pair.
//
// The resulting matrix is the input to the ILP matcher: the inverse
// slowdowns of a candidate pattern are what the objective function
// maximizes (Equations 3.3–3.4).
package interference

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/stats"
)

// MaxCoRunCycles bounds one co-run simulation.
const MaxCoRunCycles = 60_000_000

// appBaseStride separates concurrently resident address spaces.
const appBaseStride = uint64(1) << 40

// CoRun executes the given kernels concurrently, each on its own SM
// set, until every one finishes. smSets[i] lists the SM ids of kernels[i].
// It returns the per-application counters in input order.
func CoRun(cfg config.GPUConfig, kernels []kernel.Params, smSets [][]int) ([]stats.App, error) {
	if len(kernels) == 0 || len(kernels) != len(smSets) {
		return nil, fmt.Errorf("interference: %d kernels with %d SM sets", len(kernels), len(smSets))
	}
	d, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	handles := make([]gpu.AppHandle, len(kernels))
	for i, params := range kernels {
		k, err := kernel.New(params, cfg.L1.LineBytes)
		if err != nil {
			return nil, err
		}
		k.BaseAddr = uint64(i+1) * appBaseStride
		h, err := d.Launch(k, smSets[i])
		if err != nil {
			return nil, err
		}
		handles[i] = h
	}
	if err := d.Run(MaxCoRunCycles); err != nil {
		return nil, err
	}
	out := make([]stats.App, len(kernels))
	for i, h := range handles {
		out[i] = d.AppStats(h)
	}
	return out, nil
}

// EvenSplit partitions numSMs cores into n contiguous equal sets.
func EvenSplit(numSMs, n int) [][]int {
	sets := make([][]int, n)
	per := numSMs / n
	next := 0
	for i := range sets {
		count := per
		if i < numSMs%n {
			count++
		}
		sets[i] = make([]int, 0, count)
		for j := 0; j < count; j++ {
			sets[i] = append(sets[i], next)
			next++
		}
	}
	return sets
}

// PairResult records one co-run's slowdowns.
type PairResult struct {
	A, B        string
	SlowdownA   float64
	SlowdownB   float64
	CyclesA     uint64
	CyclesB     uint64
	CoRunCycles uint64 // makespan of the pair
	SoloCyclesA uint64
	SoloCyclesB uint64
}

// Matrix is the per-class average slowdown table of Figure 3.4:
// Slowdown[i][j] is the mean slowdown of a class-i application when
// co-running with a class-j application.
type Matrix struct {
	Slowdown [classify.NumClasses][classify.NumClasses]float64
	Samples  [classify.NumClasses][classify.NumClasses]int
	Pairs    []PairResult
}

// At returns the average slowdown of class a against class b, falling
// back to a neutral estimate when the cell has no samples.
func (m *Matrix) At(a, b classify.Class) float64 {
	if m.Samples[a][b] == 0 {
		return 2 // even-split with no interference: roughly half speed
	}
	return m.Slowdown[a][b]
}

// String renders the matrix with class labels.
func (m *Matrix) String() string {
	s := "slowdown of \\ with   M      MC     C      A\n"
	for _, a := range classify.All() {
		s += fmt.Sprintf("%-18s", a)
		for _, b := range classify.All() {
			s += fmt.Sprintf(" %6.2f", m.At(a, b))
		}
		s += "\n"
	}
	return s
}

// Campaign is the measured half of the interference analysis: every
// application's solo profile and every pair's co-run cycles, before
// classes are known. Fold turns it into the class matrix.
type Campaign struct {
	// Solo holds the full-device solo profiles in universe order.
	Solo []profile.Result
	// Pairs holds one entry per pair (i<j in universe order) with the
	// co-run cycles filled in; Fold adds the solo cycles and slowdowns.
	Pairs []PairResult
}

// RunCampaign runs every solo profile (through the profiler's memo) and
// every pair co-run on one pool of runtime.NumCPU() workers, so at most
// that many devices are live at once. Jobs are taken in a fixed order,
// solos first, and write index-addressed slots, so the result does not
// depend on scheduling. (Solos first rather than longest-first: on a
// two-core host both orders finish together, but pairs-first raised the
// peak resident set by about a third.)
func RunCampaign(cfg config.GPUConfig, prof *profile.Profiler, apps []kernel.Params) (*Campaign, error) {
	type pairJob struct{ i, j int }
	var pairs []pairJob
	for i := 0; i < len(apps); i++ {
		for j := i + 1; j < len(apps); j++ {
			pairs = append(pairs, pairJob{i, j})
		}
	}
	c := &Campaign{Solo: make([]profile.Result, len(apps)), Pairs: make([]PairResult, len(pairs))}
	if err := par.Do(len(apps)+len(pairs), 0, func(idx int) error {
		if idx < len(apps) {
			var err error
			c.Solo[idx], err = prof.Run(apps[idx], 0)
			return err
		}
		k := idx - len(apps)
		a, b := apps[pairs[k].i], apps[pairs[k].j]
		sts, err := CoRun(cfg, []kernel.Params{a, b}, EvenSplit(cfg.NumSMs, 2))
		if err != nil {
			return fmt.Errorf("pair %s+%s: %w", a.Name, b.Name, err)
		}
		c.Pairs[k] = PairResult{A: a.Name, B: b.Name, CyclesA: sts[0].Cycles(), CyclesB: sts[1].Cycles()}
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// Fold completes every pair with its solo cycles and slowdowns and
// averages the slowdowns per (class, co-runner class) cell. classes maps
// each application name to its class (from the classification step).
func (c *Campaign) Fold(classes map[string]classify.Class) *Matrix {
	solo := make(map[string]uint64, len(c.Solo))
	for _, r := range c.Solo {
		solo[r.Name] = r.Cycles
	}
	m := &Matrix{Pairs: make([]PairResult, 0, len(c.Pairs))}
	var sums [classify.NumClasses][classify.NumClasses]float64
	for _, pr := range c.Pairs {
		pr.SoloCyclesA, pr.SoloCyclesB = solo[pr.A], solo[pr.B]
		pr.CoRunCycles = max(pr.CyclesA, pr.CyclesB)
		pr.SlowdownA = float64(pr.CyclesA) / float64(pr.SoloCyclesA)
		pr.SlowdownB = float64(pr.CyclesB) / float64(pr.SoloCyclesB)
		ca, cb := classes[pr.A], classes[pr.B]
		sums[ca][cb] += pr.SlowdownA
		m.Samples[ca][cb]++
		sums[cb][ca] += pr.SlowdownB
		m.Samples[cb][ca]++
		m.Pairs = append(m.Pairs, pr)
	}
	for a := range sums {
		for b := range sums[a] {
			if m.Samples[a][b] > 0 {
				m.Slowdown[a][b] = sums[a][b] / float64(m.Samples[a][b])
			}
		}
	}
	return m
}

// Compute runs the all-pairs campaign and folds it into the class
// matrix. classes maps each application name to its class (from the
// classification step).
func Compute(cfg config.GPUConfig, prof *profile.Profiler, classes map[string]classify.Class, apps []kernel.Params) (*Matrix, error) {
	c, err := RunCampaign(cfg, prof, apps)
	if err != nil {
		return nil, err
	}
	return c.Fold(classes), nil
}

// TripleSlowdown estimates the slowdown of class a co-running with
// classes b and c by composing pairwise interference. A pairwise
// slowdown factors into parallelism loss (×2 from the even split) and a
// contention factor S/2; for three applications the parallelism loss is
// ×3 and the contention factors of both co-runners compose
// multiplicatively. This mirrors how the paper extends its pairwise
// analysis (Section 3.2.3, "replicated for three application
// execution").
func (m *Matrix) TripleSlowdown(a, b, c classify.Class) float64 {
	return 3 * (m.At(a, b) / 2) * (m.At(a, c) / 2)
}
