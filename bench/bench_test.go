package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/testkit"
)

// smokeSize runs every workload in well under a second per op: the
// testkit universe for calibrate, a handful of cheap jobs for
// cycle-fleet, and about a thousand jobs or requests for the modeled
// fleets.
var smokeSize = size{
	calibrate:      testkit.Universe(),
	cycleNames:     []string{"LUD", "NN"},
	cycleJobs:      4,
	openJobs:       1000,
	closedRequests: 16, // 64 clients
}

// Tests run in bench/, one level below the repository root.
func smokeEnv() *env { return newEnv("..", smokeSize) }

func manifestForTest(t *testing.T) *manifest {
	t.Helper()
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// lastLine decodes the result line a single-workload run ends with.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestEveryListedMetricIsEmitted runs each workload untraced and traced
// and checks the result line carries exactly the metrics BENCHMARK.json
// lists, each with the unit it lists, and that the code's catalog
// agrees with the manifest, bounds included.
func TestEveryListedMetricIsEmitted(t *testing.T) {
	man := manifestForTest(t)
	for _, m := range man.EndToEnd {
		def, ok := lookup(endToEnd, m.Name)
		if !ok || def != m || !slices.Contains(common, m.Name) {
			t.Errorf("BENCHMARK.json end_to_end %+v: catalog has %+v (known %v), and it must be common to every workload", m, def, ok)
		}
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the catalog %d", len(man.PerLayer), len(perLayer))
	}
	for _, m := range man.PerLayer {
		if def, ok := lookup(perLayer, m.Name); !ok || def.Unit != m.Unit || def.Better != m.Better {
			t.Errorf("BENCHMARK.json per_layer %+v: catalog has %+v (known %v)", m, def, ok)
		}
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloadList {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}

	for _, w := range workloadList {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			if err := runOne(&out, smokeEnv(), w.name, 1, 0, trace); err != nil {
				t.Fatalf("%s -trace %s: %v\n%s", w.name, trace, err, out.String())
			}
			r := lastLine(t, out.String())
			listed := man.EndToEnd
			if trace == "1" {
				listed = man.PerLayer
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < minOps || len(r.Metrics) != len(listed) {
				t.Errorf("%s -trace %s: result %+v, want correct with %d metrics", w.name, trace, r, len(listed))
			}
			for _, m := range listed {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s -trace %s: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestSmokeDigestsRepeat runs every workload twice and requires
// identical digests: the simulated outputs are deterministic.
func TestSmokeDigestsRepeat(t *testing.T) {
	for _, w := range workloadList {
		a := run(w, smokeEnv(), 7, 0, nil)
		b := run(w, smokeEnv(), 7, 0, nil)
		if a.Failed+b.Failed != 0 {
			t.Fatalf("%s: %v %v", w.name, a.Errors, b.Errors)
		}
		if len(a.Digests) == 0 || !reflect.DeepEqual(a.Digests, b.Digests) {
			t.Errorf("%s: digests %v then %v", w.name, a.Digests, b.Digests)
		}
		for _, m := range append(common, w.metrics...) {
			if _, ok := a.Samples[m]; !ok {
				t.Errorf("%s: no %s sample", w.name, m)
			}
		}
	}
}

// TestTamperedResultsCountAsFailures breaks one invariant per workload
// and requires every op to count as failed in error_rate.
func TestTamperedResultsCountAsFailures(t *testing.T) {
	tamper := map[string]func(*outcome){
		"calibrate":      func(o *outcome) { o.cal.Matrix.Pairs = o.cal.Matrix.Pairs[1:] },
		"cycle-fleet":    func(o *outcome) { o.res.CycleGroups-- },
		"modeled-open":   func(o *outcome) { o.res.Jobs = o.res.Jobs[1:] },
		"modeled-closed": func(o *outcome) { o.res.Rejected++ },
	}
	for _, w := range workloadList {
		broken, f := *w, tamper[w.name]
		broken.run = func(in *input, c *opClock) (*outcome, error) {
			o, err := w.run(in, c)
			if err == nil {
				f(o)
			}
			return o, err
		}
		d := run(&broken, smokeEnv(), 1, 0, nil)
		if d.Failed != d.Attempted || d.Samples["error_rate"][0] != 1 {
			t.Errorf("%s: %d of %d ops failed (error_rate %v), want all", w.name, d.Failed, d.Attempted, d.Samples["error_rate"])
		}
	}
}

// TestDigestMismatchFails changes the second op's output only: the op
// repeats the first op's seed, so the digest check must catch it.
func TestDigestMismatchFails(t *testing.T) {
	broken := *modeledOpen
	ops := 0
	broken.run = func(in *input, c *opClock) (*outcome, error) {
		o, err := modeledOpen.run(in, c)
		if ops++; ops == 2 && err == nil {
			o.summary += "x"
		}
		return o, err
	}
	d := run(&broken, smokeEnv(), 1, 0, nil)
	if d.Attempted != 2 || d.Failed != 1 || !strings.Contains(d.Errors[0], "digest") {
		t.Errorf("attempted %d, failed %d, errors %v; want the second op failed on its digest", d.Attempted, d.Failed, d.Errors)
	}
}

// TestCalibrationOracle checks verifyCalibration against the fixture:
// a calibration copied from it passes, one changed cycle count fails.
func TestCalibrationOracle(t *testing.T) {
	ref, err := smokeEnv().restore(config.Small(), nil)
	if err != nil {
		t.Fatal(err)
	}
	in := &input{apps: suite("LUD", "NN"), ref: ref}
	cal := newCalibration(nil, ref.Thresholds(), ref.Classes(), ref.Matrix())
	for _, r := range ref.Profiles() {
		if r.Name == "LUD" || r.Name == "NN" {
			cal.Profiles = append(cal.Profiles, r)
		}
	}
	m := *ref.Matrix()
	m.Pairs = nil
	for _, p := range ref.Matrix().Pairs {
		if p.A == "LUD" && p.B == "NN" {
			m.Pairs = append(m.Pairs, p)
		}
	}
	cal.Matrix = &m
	if _, err := verifyCalibration(in, &outcome{cal: cal}); err != nil {
		t.Fatalf("fixture entries rejected: %v", err)
	}
	cal.Matrix.Pairs[0].CyclesA++
	if _, err := verifyCalibration(in, &outcome{cal: cal}); err == nil {
		t.Fatal("a changed co-run passed the oracle")
	}
}

// TestFailedOpClosesSpans makes a traced op fail inside its run and
// requires every span it opened to end no earlier than it started.
func TestFailedOpClosesSpans(t *testing.T) {
	broken := *modeledClosed
	broken.run = func(_ *input, c *opClock) (*outcome, error) {
		c.start()
		return nil, errors.New("injected")
	}
	tr := newTracer()
	d := run(&broken, smokeEnv(), 1, 0, tr)
	if d.Failed != d.Attempted {
		t.Fatalf("%d of %d ops failed, want all", d.Failed, d.Attempted)
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
	for _, s := range d.Spans {
		if s.End < s.Start {
			t.Errorf("span %s of op %d ends at %v before its start %v", s.Name, s.Op, s.End, s.Start)
		}
	}
}

// TestFixtureMismatchNamesRegen requires a stale fixture to be reported
// with the command that rebuilds it.
func TestFixtureMismatchNamesRegen(t *testing.T) {
	e := smokeEnv()
	e.apps = append(e.apps[:0:0], e.apps...)
	e.apps[0].Seed++
	_, err := e.restore(config.Small(), nil)
	if err == nil || !strings.Contains(err.Error(), "-regen-calibration") {
		t.Fatalf("error %v does not name -regen-calibration", err)
	}
}

// common are the end-to-end metrics every workload reports.
var common = []string{"setup_s", "run_s", "cpu_s", "alloc_mb", "maxrss_mb", "error_rate"}
