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
	res, err := Solve(patterns, eff, counts, 2, nil)
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
	res, err := solveOn(m, counts, 2)
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
	res, err := solveOn(m, counts, 2)
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
	res, err := solveOn(m, counts, 3)
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

// TestSolveRejectsSmallGroups checks Solve refuses group sizes below 2,
// where there is no pattern to choose.
func TestSolveRejectsSmallGroups(t *testing.T) {
	m := &interference.Matrix{}
	counts := [classify.NumClasses]int{2, 2, 2, 2}
	for _, nc := range []int{1, 0, -1} {
		if _, err := solveOn(m, counts, nc); err == nil {
			t.Errorf("Solve accepted group size %d", nc)
		}
	}
}

// solveOn solves counts at group size nc with matrix m's efficiencies.
func solveOn(m *interference.Matrix, counts [classify.NumClasses]int, nc int) (Result, error) {
	patterns := Patterns(nc)
	return Solve(patterns, Efficiencies(m, patterns), counts, nc, nil)
}

// bruteForce is the oracle that needs no solver: it lists every
// multiset of ⌊n/nc⌋ patterns that fits counts and returns the best
// total efficiency among them.
func bruteForce(patterns []Pattern, eff []float64, counts [classify.NumClasses]int, nc int) float64 {
	best := math.Inf(-1)
	var list func(start, left int, avail [classify.NumClasses]int, sum float64)
	list = func(start, left int, avail [classify.NumClasses]int, sum float64) {
		if left == 0 {
			best = max(best, sum)
			return
		}
		for k := start; k < len(patterns); k++ {
			rest, fits := avail, true
			for _, c := range patterns[k] {
				rest[c]--
				fits = fits && rest[c] >= 0
			}
			if fits {
				list(k, left-1, rest, sum+eff[k])
			}
		}
	}
	list(0, (counts[0]+counts[1]+counts[2]+counts[3])/nc, counts, 0)
	return best
}

// TestSolveMatchesBruteForce checks Solve and the pick table against
// bruteForce on every composition of up to 12 jobs at NC 2 to 4, over
// two random matrices, the tie-heavy one and a flat one (every slowdown
// 1, so every matching of a composition ties exactly). Solve's
// objective and the table's covered state both equal the brute-force
// maximum within 1e-9 relative; Solve's Counts form ⌊n/NC⌋ groups that
// fit the counts and reach it; and the table's pick is HeadPattern of
// Solve's cover for every head class present. One Lattice serves every
// solve, so its reuse across compositions, matrices and group sizes is
// checked too.
func TestSolveMatchesBruteForce(t *testing.T) {
	var lat Lattice
	flat := &interference.Matrix{}
	for a := range flat.Slowdown {
		for b := range flat.Slowdown[a] {
			flat.Slowdown[a][b] = 1
			flat.Samples[a][b] = 1
		}
	}
	for _, m := range []*interference.Matrix{randomMatrix(1), randomMatrix(2), tieMatrix(), flat} {
		for nc := 2; nc <= 4; nc++ {
			tab, patterns, eff := tableFor(m, nc)
			for n := 0; n <= 12; n++ {
				forEachComposition(n, func(counts [classify.NumClasses]int) {
					best := bruteForce(patterns, eff, counts, nc)
					tol := 1e-9 * math.Max(1, math.Abs(best))
					res, err := Solve(patterns, eff, counts, nc, &lat)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(res.Objective-best) > tol {
						t.Fatalf("NC %d counts %v: Solve objective %v, brute force %v", nc, counts, res.Objective, best)
					}
					if g := tab.state(counts).g; math.Abs(g-best) > tol {
						t.Fatalf("NC %d counts %v: table objective %v, brute force %v", nc, counts, g, best)
					}
					checkCover(t, res, counts)
					sum := 0.0
					for k, c := range res.Counts {
						sum += float64(c) * eff[k]
					}
					if math.Abs(sum-best) > tol {
						t.Fatalf("NC %d counts %v: Solve's cover sums to %v, brute force %v (%v)", nc, counts, sum, best, res)
					}
					for h := classify.Class(0); h < classify.NumClasses; h++ {
						if counts[h] == 0 {
							continue
						}
						if got, want := tab.Pick(counts, h), HeadPattern(res, h); got != want {
							t.Fatalf("NC %d counts %v head %v: table %d, Solve %d (%v)", nc, counts, h, got, want, res)
						}
					}
				})
			}
		}
	}
}

// checkCover fails t unless res's cover forms ⌊n/NC⌋ groups whose
// patterns fit counts.
func checkCover(t *testing.T, res Result, counts [classify.NumClasses]int) {
	t.Helper()
	var used [classify.NumClasses]int
	for k, c := range res.Counts {
		for _, cls := range res.Patterns[k] {
			used[cls] += c
		}
	}
	n := counts[0] + counts[1] + counts[2] + counts[3]
	if res.Groups != n/res.NC || used[0] > counts[0] || used[1] > counts[1] || used[2] > counts[2] || used[3] > counts[3] {
		t.Fatalf("NC %d counts %v: Solve's %d groups use %v (%v)", res.NC, counts, res.Groups, used, res)
	}
}

// TestLatticeReuse: a Lattice reused across compositions, including a
// solve whose epoch counter wraps, returns what a fresh one returns.
func TestLatticeReuse(t *testing.T) {
	m := randomMatrix(4)
	patterns := Patterns(3)
	eff := Efficiencies(m, patterns)
	var lat Lattice
	for i, counts := range [][classify.NumClasses]int{{5, 4, 6, 3}, {2, 7, 1, 5}, {5, 4, 6, 3}, {9, 0, 2, 1}} {
		if i == 2 {
			lat.epoch = math.MaxUint32
		}
		got, err := Solve(patterns, eff, counts, 3, &lat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(patterns, eff, counts, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || got.Objective != want.Objective {
			t.Fatalf("counts %v: reused lattice %v, fresh %v", counts, got, want)
		}
	}
}

// forEachComposition calls fn with every class-count vector of size n.
func forEachComposition(n int, fn func([classify.NumClasses]int)) {
	for a := 0; a <= n; a++ {
		for b := 0; a+b <= n; b++ {
			for c := 0; a+b+c <= n; c++ {
				fn([classify.NumClasses]int{a, b, c, n - a - b - c})
			}
		}
	}
}
