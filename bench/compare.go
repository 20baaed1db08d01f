package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Outcomes of comparing one (workload, metric) across two sets.
const (
	ok         = "ok"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares one metric of two sets, each given as the distribution
// of its run medians. The allowed worsening is the bound's share of
// BASE's median; with a bound of 0 any worsening counts. A metric
// regressed when NEW's median is worse than BASE's by more than that.
// When either side's spread (q3-q1) is wider than it and the two ranges
// overlap, the sets cannot tell a regression from noise, so the row is
// unresolved; NEW reading better than every BASE run never overlaps and
// counts as ok.
func judge(base, next stat, def metricDef) string {
	allowed := def.Bound * math.Abs(base.Median)
	noise := math.Max(base.Q3-base.Q1, next.Q3-next.Q1)
	if def.Bound > 0 && noise > allowed && next.Min <= base.Max && base.Min <= next.Max {
		return unresolved
	}
	if worse(base.Median, next.Median, def.Better) > allowed {
		return regressed
	}
	return ok
}

// judgeSeeds compares a perSeed metric at the seeds both sets ran: a
// worsening at any of them, beyond the bound, is a regression.
func judgeSeeds(base, next map[string]float64, def metricDef) (status, note string) {
	shared := 0
	for seed, b := range base {
		n, found := next[seed]
		if !found {
			continue
		}
		shared++
		if worse(b, n, def.Better) > def.Bound*math.Abs(b) {
			return regressed, "worse at seed " + seed
		}
	}
	if shared == 0 {
		return unresolved, "no seed in both reports"
	}
	return ok, fmt.Sprintf("compared at %d seeds", shared)
}

// worse is how much worse next is than base (negative when better).
func worse(base, next float64, better string) float64 {
	if better == "higher" {
		return base - next
	}
	return next - base
}

// row is one line of a comparison.
type row struct {
	Workload, Metric, Status, Note string
	Base, Next                     *stat
	Bound                          float64
}

// compareReports compares every (workload, metric) of two sets and
// their digests. A workload or metric present on one side only is
// unresolved: there is nothing to compare it with.
func compareReports(base, next *setReport, bounds map[string]metricDef) []row {
	var rows []row
	workloadName := func(w workloadReport) string { return w.Name }
	statName := func(s stat) string { return s.Name }
	for _, name := range union(workloadName, base.Workloads, next.Workloads) {
		b, n := findReport(base, name), findReport(next, name)
		if b == nil || n == nil {
			rows = append(rows, row{Workload: name, Metric: "*", Status: unresolved, Note: "workload in one report only"})
			continue
		}
		for _, metric := range union(statName, b.Metrics, n.Metrics) {
			bs, ns := findStat(b.Metrics, metric), findStat(n.Metrics, metric)
			def, known := bounds[metric]
			r := row{Workload: name, Metric: metric, Base: runLevel(bs), Next: runLevel(ns), Bound: def.Bound}
			switch {
			case bs == nil || ns == nil:
				r.Status, r.Note = unresolved, "metric in one report only"
			case !known:
				r.Status, r.Note = unresolved, "no bound for this metric"
			case bs.BySeed != nil && ns.BySeed != nil:
				r.Status, r.Note = judgeSeeds(bs.BySeed, ns.BySeed, def)
			default:
				r.Status = judge(*r.Base, *r.Next, def)
			}
			rows = append(rows, r)
		}
		r := row{Workload: name, Metric: "digests", Status: ok}
		for seed, d := range b.Digests {
			if nd, found := n.Digests[seed]; found && nd != d {
				r.Status, r.Note = regressed, "simulated outputs changed for seed "+seed
				break
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// union lists the names of every item of every list once, in first-seen
// order.
func union[T any](name func(T) string, lists ...[]T) []string {
	var names []string
	seen := map[string]bool{}
	for _, list := range lists {
		for _, item := range list {
			if n := name(item); !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return names
}

func findReport(r *setReport, name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// runLevel is the distribution of a metric's run medians (nil stays
// nil); a stat without them stands for itself.
func runLevel(s *stat) *stat {
	if s == nil || len(s.Runs) == 0 {
		return s
	}
	r := summarize(s.Name, s.Unit, s.Runs)
	return &r
}

func findStat(stats []stat, name string) *stat {
	for i := range stats {
		if stats[i].Name == name {
			return &stats[i]
		}
	}
	return nil
}

// compareFiles loads two -out reports, prints one row per (workload,
// metric), and fails when any row regressed.
func compareFiles(w io.Writer, basePath, nextPath string) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	next, err := loadReport(nextPath)
	if err != nil {
		return err
	}
	if base.Host.CPU != next.Host.CPU || base.Host.NProc != next.Host.NProc {
		fmt.Fprintf(w, "warning: hosts differ (%s ×%d vs %s ×%d); host times are not comparable\n",
			base.Host.CPU, base.Host.NProc, next.Host.CPU, next.Host.NProc)
	}
	bounds := make(map[string]metricDef, len(endToEnd))
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	rows := compareReports(base, next, bounds)
	counts := map[string]int{}
	fmt.Fprintln(w, "medians and quartiles are over run medians")
	fmt.Fprintf(w, "%-15s %-26s %-11s %-29s %-29s %8s %6s\n", "workload", "metric", "status", "base median [q1,q3]", "new median [q1,q3]", "change", "bound")
	for _, r := range rows {
		counts[r.Status]++
		change := ""
		if r.Base != nil && r.Next != nil && r.Base.Median != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(r.Next.Median-r.Base.Median)/math.Abs(r.Base.Median))
		}
		fmt.Fprintf(w, "%-15s %-26s %-11s %-29s %-29s %8s %6s %s\n", r.Workload, r.Metric, r.Status,
			describe(r.Base), describe(r.Next), change, fmt.Sprintf("%g%%", 100*r.Bound), r.Note)
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %d  ", k, counts[k])
	}
	fmt.Fprintln(w)
	if counts[regressed] > 0 {
		return fmt.Errorf("%d rows regressed", counts[regressed])
	}
	return nil
}

func describe(s *stat) string {
	if s == nil {
		return "-"
	}
	return fmt.Sprintf("%.5g [%.5g,%.5g]", s.Median, s.Q1, s.Q3)
}

func loadReport(path string) (*setReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r setReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &r, nil
}
