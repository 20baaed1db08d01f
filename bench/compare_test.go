package main

import (
	"testing"
)

func st(median, q1, q3, min, max float64) stat {
	return stat{N: 10, Median: median, Q1: q1, Q3: q3, Min: min, Max: max}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "sim_ipc", Better: "higher", Bound: 0}
	errRate := metricDef{Name: "error_rate", Better: "lower", Bound: 0}
	tight := st(100, 99, 101, 98, 102)
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, next stat
		want       string
	}{
		{"lower: same", lower, tight, tight, ok},
		{"lower: within bound", lower, tight, st(108, 107, 109, 106, 110), ok},
		{"lower: past bound", lower, tight, st(115, 114, 116, 113, 117), regressed},
		{"lower: much better", lower, tight, st(50, 49, 51, 48, 52), ok},
		{"higher: past bound", higher, tight, st(85, 84, 86, 83, 87), regressed},
		{"higher: rising is better", higher, tight, st(130, 129, 131, 128, 132), ok},
		{"lower: noisy and overlapping", lower, st(100, 80, 120, 70, 130), st(115, 95, 135, 85, 145), unresolved},
		{"lower: noisy but every new run better", lower, st(100, 80, 120, 70, 130), st(40, 32, 48, 28, 52), ok},
		{"lower: noisy, no overlap, worse", lower, st(100, 80, 120, 70, 130), st(200, 160, 240, 140, 260), regressed},
		{"exact: unchanged", exact, st(3.5, 3, 4, 2, 5), st(3.5, 3, 4, 2, 5), ok},
		{"exact: any drop", exact, st(3.5, 3, 4, 2, 5), st(3.4999, 3, 4, 2, 5), regressed},
		{"error rate from zero", errRate, st(0, 0, 0, 0, 0), st(0.01, 0.01, 0.01, 0.01, 0.01), regressed},
		{"error rate stays zero", errRate, st(0, 0, 0, 0, 0), st(0, 0, 0, 0, 0), ok},
	} {
		if got := judge(tc.base, tc.next, tc.def); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareOneSided covers metrics and workloads only one report has,
// and a changed digest.
func TestCompareOneSided(t *testing.T) {
	bounds := map[string]metricDef{"run_s": {Name: "run_s", Better: "lower", Bound: 0.1}}
	run := func(v float64) stat { s := st(v, v, v, v, v); s.Name = "run_s"; return s }
	only := st(1, 1, 1, 1, 1)
	only.Name = "cpu_s"
	base := &setReport{Workloads: []workloadReport{
		{Name: "a", Metrics: []stat{run(1), only}, Digests: map[string]string{"1": "x"}},
		{Name: "gone", Metrics: []stat{run(1)}},
	}}
	next := &setReport{Workloads: []workloadReport{
		{Name: "a", Metrics: []stat{run(1)}, Digests: map[string]string{"1": "y"}},
	}}
	got := map[string]string{}
	for _, r := range compareReports(base, next, bounds) {
		got[r.Workload+"/"+r.Metric] = r.Status
	}
	want := map[string]string{
		"a/run_s":   ok,
		"a/cpu_s":   unresolved, // in BASE only
		"a/digests": regressed,
		"gone/*":    unresolved,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %q, want %q (all rows %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("rows %v, want %v", got, want)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4) default: [2.75, 5.5, 8.25] for 1..10.
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize("x", "s", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
}

// TestCompareUsesRunMedians: ops may spread wider than the bound while
// the run medians, which carry the run-to-run noise, agree.
func TestCompareUsesRunMedians(t *testing.T) {
	bounds := map[string]metricDef{"run_s": {Name: "run_s", Better: "lower", Bound: 0.1}}
	wide := stat{Name: "run_s", N: 60, Median: 1, Q1: 0.6, Q3: 1.4, Min: 0.3, Max: 2}
	report := func(s stat) *setReport {
		return &setReport{Workloads: []workloadReport{{Name: "a", Metrics: []stat{s}}}}
	}
	withRuns := wide
	withRuns.Runs = []float64{1, 1.02, 0.98}
	for _, tc := range []struct {
		s    stat
		want string
	}{{wide, unresolved}, {withRuns, ok}} {
		if got := compareReports(report(tc.s), report(tc.s), bounds)[0].Status; got != tc.want {
			t.Errorf("runs %v: %s, want %s", tc.s.Runs, got, tc.want)
		}
	}
}
