package experiments

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/kernel"
	"repro/internal/match"
	"repro/internal/workloads"
)

// Fig1_2 reproduces Figure 1.2: maximum device utilization achieved by
// each benchmark running alone on the full device.
func (s *Suite) Fig1_2() (Artifact, error) {
	a := Artifact{
		ID:      "Fig1.2",
		Title:   "Max utilization of Rodinia benchmarks (solo, full device)",
		Columns: []string{"Utilization%"},
	}
	for _, r := range s.P.Profiles() {
		a.Rows = append(a.Rows, Row{Label: r.Name, Values: []float64{r.Utilization * 100}})
	}
	return a, nil
}

// Table3_2 reproduces Table 3.2: per-benchmark profile signature and
// resulting class.
func (s *Suite) Table3_2() (Artifact, error) {
	a := Artifact{
		ID:      "Table3.2",
		Title:   "Classification of Rodinia benchmarks",
		Columns: []string{"MB(GB/s)", "L2->L1(GB/s)", "IPC", "R", "Class"},
	}
	th := s.P.Thresholds()
	a.Notes = append(a.Notes,
		fmt.Sprintf("thresholds: alpha=%.1fGB/s beta=%.1fGB/s gamma=%.1fGB/s epsilon=%.0f IPC",
			th.AlphaGBps, th.BetaGBps, th.GammaGBps, th.EpsilonIPC))
	for _, c := range s.P.Classification() {
		a.Rows = append(a.Rows, Row{
			Label: c.Name,
			Values: []float64{
				c.Metrics.MemBandwidthGBps,
				c.Metrics.L2ToL1GBps,
				c.Metrics.IPC,
				c.Metrics.R,
				float64(c.Class),
			},
		})
		if want := workloads.ExpectedClass[c.Name]; want != c.Class.String() {
			a.Notes = append(a.Notes,
				fmt.Sprintf("MISMATCH: %s classified %s, paper reports %s", c.Name, c.Class, want))
		}
	}
	return a, nil
}

// Fig3_4 reproduces Figure 3.4: average slowdown a row class suffers
// when co-executing with a column class.
func (s *Suite) Fig3_4() (Artifact, error) {
	a := Artifact{
		ID:      "Fig3.4",
		Title:   "Average application slowdown due to co-execution (row with column)",
		Columns: []string{"with M", "with MC", "with C", "with A"},
	}
	m := s.P.Matrix()
	for _, row := range classify.All() {
		vals := make([]float64, 0, classify.NumClasses)
		for _, col := range classify.All() {
			vals = append(vals, m.At(row, col))
		}
		a.Rows = append(a.Rows, Row{Label: "class " + row.String(), Values: vals})
	}
	return a, nil
}

// fig35SMCounts are the core counts swept by Figures 3.5 and 3.6.
var fig35SMCounts = []int{10, 15, 20, 25, 30}

// Fig3_5 reproduces Figure 3.5: IPC scalability trends (normalized to
// the 10-core point) for the benchmarks the thesis highlights.
func (s *Suite) Fig3_5() (Artifact, error) {
	subjects := []string{"BFS2", "LUD", "FFT", "LPS", "GUPS", "HS"}
	a := Artifact{
		ID:    "Fig3.5",
		Title: "Scalability trends: IPC vs #SMs, normalized to 10 SMs",
	}
	for _, n := range fig35SMCounts {
		a.Columns = append(a.Columns, fmt.Sprintf("%d SMs", n))
	}
	ideal := Row{Label: "Ideal"}
	for _, n := range fig35SMCounts {
		ideal.Values = append(ideal.Values, float64(n)/float64(fig35SMCounts[0]))
	}
	rows, err := s.ipcRows(subjects, fig35SMCounts)
	if err != nil {
		return Artifact{}, err
	}
	for _, row := range rows {
		base := row.Values[0]
		for i := range row.Values {
			row.Values[i] /= base
		}
	}
	a.Rows = append([]Row{ideal}, rows...)
	return a, nil
}

// Fig3_6 reproduces Figure 3.6: absolute IPC of every benchmark at 10,
// 15, 20 and 30 cores.
func (s *Suite) Fig3_6() (Artifact, error) {
	counts := []int{10, 15, 20, 30}
	a := Artifact{
		ID:    "Fig3.6",
		Title: "IPC of benchmarks with different numbers of cores",
	}
	for _, n := range counts {
		a.Columns = append(a.Columns, fmt.Sprintf("%d Cores", n))
	}
	rows, err := s.ipcRows(workloads.Names, counts)
	if err != nil {
		return Artifact{}, err
	}
	a.Rows = rows
	return a, nil
}

// ipcRows profiles each named benchmark at every core count, one
// Profiler.RunAll per count, and returns one row of IPCs per benchmark.
func (s *Suite) ipcRows(names []string, counts []int) ([]Row, error) {
	params := make([]kernel.Params, len(names))
	rows := make([]Row, len(names))
	for i, name := range names {
		params[i] = workloads.MustParams(name)
		rows[i].Label = name
	}
	for _, n := range counts {
		rs, err := s.P.Profiler().RunAll(params, n)
		if err != nil {
			return nil, err
		}
		for i, r := range rs {
			rows[i].Values = append(rows[i].Values, r.IPC)
		}
	}
	return rows, nil
}

// AppendixA reproduces the Appendix A worked example with this
// simulator's measured interference matrix: a 14-application queue with
// class counts (2 M, 5 MC, 2 C, 5 A), NC=2, NP=10.
func (s *Suite) AppendixA() (Artifact, error) {
	var counts [classify.NumClasses]int
	for _, n := range workloads.Names {
		cls, err := s.P.ClassOf(n)
		if err != nil {
			return Artifact{}, err
		}
		counts[cls]++
	}
	patterns := match.Patterns(2)
	res, err := match.Solve(patterns, match.Efficiencies(s.P.Matrix(), patterns), counts, 2, nil)
	if err != nil {
		return Artifact{}, err
	}
	a := Artifact{
		ID:      "AppendixA",
		Title:   "Worked ILP example: pattern multiplicities for the 14-app queue",
		Columns: []string{"e_k", "L_k"},
		Notes: []string{
			fmt.Sprintf("objective f = %.4f over %d groups", res.Objective, res.Groups),
			fmt.Sprintf("queue class counts: M=%d MC=%d C=%d A=%d",
				counts[classify.ClassM], counts[classify.ClassMC], counts[classify.ClassC], counts[classify.ClassA]),
		},
	}
	for k, p := range res.Patterns {
		a.Rows = append(a.Rows, Row{Label: p.String(), Values: []float64{res.Eff[k], float64(res.Counts[k])}})
	}
	return a, nil
}
