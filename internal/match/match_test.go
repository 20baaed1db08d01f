package match

import (
	"math"
	"testing"

	"repro/internal/classify"
	"repro/internal/interference"
)

func TestPatternsCount(t *testing.T) {
	for nc := 2; nc <= 4; nc++ {
		got := len(Patterns(nc))
		want := NumPatterns(nc)
		if got != want {
			t.Fatalf("nc=%d: %d patterns, want %d", nc, got, want)
		}
	}
	if NumPatterns(2) != 10 {
		t.Fatalf("NP for NC=2 should be 10 (paper), got %d", NumPatterns(2))
	}
	if NumPatterns(3) != 20 {
		t.Fatalf("NP for NC=3 should be 20, got %d", NumPatterns(3))
	}
}

func TestPatternsSortedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Patterns(3) {
		for i := 1; i < len(p); i++ {
			if p[i] < p[i-1] {
				t.Fatalf("pattern %v not sorted", p)
			}
		}
		if seen[p.String()] {
			t.Fatalf("duplicate pattern %v", p)
		}
		seen[p.String()] = true
	}
}

// TestAppendixAExample reproduces the worked example of Appendix A: a
// queue of 2 class M, 5 class MC, 2 class C and 5 class A applications
// with the thesis's literal e_k coefficients. The optimal solution the
// thesis reports is L3(M-C)=2, L5(MC-MC)=2, L7(MC-A)=1, L10(A-A)=2 with
// f = 0.4718.
func TestAppendixAExample(t *testing.T) {
	patterns := Patterns(2)
	labels := make([]string, len(patterns))
	for i, p := range patterns {
		labels[i] = p.String()
	}
	want := []string{"M-M", "M-MC", "M-C", "M-A", "MC-MC", "MC-C", "MC-A", "C-C", "C-A", "A-A"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("pattern order mismatch at %d: got %s want %s", i, labels[i], want[i])
		}
	}
	eff := []float64{0.0072, 0.0110, 0.0146, 0.03584, 0.0204, 0.0202, 0.0698, 0.0178, 0.0412, 0.166}
	counts := [classify.NumClasses]int{}
	counts[classify.ClassM] = 2
	counts[classify.ClassMC] = 5
	counts[classify.ClassC] = 2
	counts[classify.ClassA] = 5
	res, err := SolveWithEff(patterns, eff, counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 7 {
		t.Fatalf("groups = %d, want 7", res.Groups)
	}
	wantObj := 2*0.0146 + 2*0.0204 + 1*0.0698 + 2*0.166
	if math.Abs(res.Objective-wantObj) > 1e-9 {
		t.Fatalf("objective = %v, want %v (thesis solution)", res.Objective, wantObj)
	}
	wantCounts := []int{0, 0, 2, 0, 2, 0, 1, 0, 0, 2}
	for k := range wantCounts {
		if res.Counts[k] != wantCounts[k] {
			t.Fatalf("counts = %v, want %v", res.Counts, wantCounts)
		}
	}
}

// TestSolveRespectsAvailability: pattern usage never exceeds queue
// counts, and the group total is floor(Nq/NC).
func TestSolveRespectsAvailability(t *testing.T) {
	m := &interference.Matrix{}
	for a := range m.Slowdown {
		for b := range m.Slowdown[a] {
			m.Slowdown[a][b] = 2 + 0.5*float64(a+b)
			m.Samples[a][b] = 1
		}
	}
	counts := [classify.NumClasses]int{3, 4, 2, 6} // Nq=15, NC=2 → 7 groups
	res, err := Solve(m, counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 7 {
		t.Fatalf("groups = %d, want 7", res.Groups)
	}
	var used [classify.NumClasses]int
	for k, c := range res.Counts {
		for _, cls := range res.Patterns[k] {
			used[cls] += c
		}
	}
	for cls, u := range used {
		if u > counts[cls] {
			t.Fatalf("class %v used %d > available %d", classify.Class(cls), u, counts[cls])
		}
	}
}

// TestSolvePrefersComplementaryClasses: with a matrix where M-M co-runs
// are catastrophic and M-A benign, the matcher must avoid pairing the
// two M applications together.
func TestSolvePrefersComplementaryClasses(t *testing.T) {
	m := &interference.Matrix{}
	for a := range m.Slowdown {
		for b := range m.Slowdown[a] {
			m.Slowdown[a][b] = 2.2
			m.Samples[a][b] = 1
		}
	}
	m.Slowdown[classify.ClassM][classify.ClassM] = 9
	m.Slowdown[classify.ClassA][classify.ClassM] = 2.1
	m.Slowdown[classify.ClassM][classify.ClassA] = 2.3
	counts := [classify.NumClasses]int{}
	counts[classify.ClassM] = 2
	counts[classify.ClassA] = 2
	res, err := Solve(m, counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range res.Counts {
		if c > 0 && res.Patterns[k].String() == "M-M" {
			t.Fatalf("matcher chose M-M despite catastrophic interference: %v", res)
		}
	}
}

func TestSolveThreeWay(t *testing.T) {
	m := &interference.Matrix{}
	for a := range m.Slowdown {
		for b := range m.Slowdown[a] {
			m.Slowdown[a][b] = 2.5
			m.Samples[a][b] = 1
		}
	}
	counts := [classify.NumClasses]int{3, 3, 3, 3} // 12 apps → 4 triples
	res, err := Solve(m, counts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 4 {
		t.Fatalf("groups = %d, want 4", res.Groups)
	}
}

func TestEfficiencySymmetricPair(t *testing.T) {
	m := &interference.Matrix{}
	m.Slowdown[classify.ClassM][classify.ClassA] = 4
	m.Samples[classify.ClassM][classify.ClassA] = 1
	m.Slowdown[classify.ClassA][classify.ClassM] = 2
	m.Samples[classify.ClassA][classify.ClassM] = 1
	p := Pattern{classify.ClassM, classify.ClassA}
	got := Efficiency(m, p)
	want := 0.5 * (1.0/4 + 1.0/2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("efficiency = %v, want %v", got, want)
	}
}

// TestSolveRejectsSmallGroups checks both solver entry points refuse
// group sizes below 2, where there is no pattern to choose.
func TestSolveRejectsSmallGroups(t *testing.T) {
	m := &interference.Matrix{}
	counts := [classify.NumClasses]int{2, 2, 2, 2}
	for _, nc := range []int{1, 0, -1} {
		if _, err := Solve(m, counts, nc); err == nil {
			t.Errorf("Solve accepted group size %d", nc)
		}
		patterns := Patterns(1)
		if _, err := SolveWithEff(patterns, make([]float64, len(patterns)), counts, nc); err == nil {
			t.Errorf("SolveWithEff accepted group size %d", nc)
		}
	}
}
