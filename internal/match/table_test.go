package match

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/classify"
	"repro/internal/interference"
)

// randomMatrix draws a full interference matrix with slowdowns in
// [1.5, 7.5) from a seeded linear congruential sequence.
func randomMatrix(seed uint64) *interference.Matrix {
	m := &interference.Matrix{}
	s := seed
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>40) / float64(1<<24)
	}
	for a := range m.Slowdown {
		for b := range m.Slowdown[a] {
			m.Slowdown[a][b] = 1.5 + 6*next()
			m.Samples[a][b] = 1
		}
	}
	return m
}

// tableFor builds a pick table over matrix m's size-nc patterns.
func tableFor(m *interference.Matrix, nc int) (*PickTable, []Pattern, []float64) {
	patterns := Patterns(nc)
	eff := Efficiencies(m, patterns)
	return NewPickTable(patterns, eff, nc), patterns, eff
}

// tieMatrix is the tie-heavy matrix 2+0.5(a+b): many patterns share an
// efficiency, so many matchings share the optimum.
func tieMatrix() *interference.Matrix {
	m := &interference.Matrix{}
	for a := range m.Slowdown {
		for b := range m.Slowdown[a] {
			m.Slowdown[a][b] = 2 + 0.5*float64(a+b)
			m.Samples[a][b] = 1
		}
	}
	return m
}

// TestPickTableAppendixA feeds Appendix A's literal efficiencies
// through the table: on the thesis queue the picks come from the thesis
// solution (2×M-C, 2×MC-MC, 1×MC-A, 2×A-A), and the covered state's
// objective is the thesis f.
func TestPickTableAppendixA(t *testing.T) {
	patterns := Patterns(2)
	eff := []float64{0.0072, 0.0110, 0.0146, 0.03584, 0.0204, 0.0202, 0.0698, 0.0178, 0.0412, 0.166}
	tab := NewPickTable(patterns, eff, 2)
	counts := [classify.NumClasses]int{}
	counts[classify.ClassM] = 2
	counts[classify.ClassMC] = 5
	counts[classify.ClassC] = 2
	counts[classify.ClassA] = 5
	want := map[classify.Class]string{
		classify.ClassM:  "M-C",
		classify.ClassMC: "MC-A",
		classify.ClassC:  "M-C",
		classify.ClassA:  "A-A",
	}
	for h, p := range want {
		k := tab.Pick(counts, h)
		if k < 0 || patterns[k].String() != p {
			t.Errorf("head %v: picked %d, want %s", h, k, p)
		}
	}
	wantObj := 2*0.0146 + 2*0.0204 + 1*0.0698 + 2*0.166
	if g := tab.state(counts).g; math.Abs(g-wantObj) > 1e-9 {
		t.Fatalf("objective = %v, want %v (thesis solution)", g, wantObj)
	}
}

// TestPickTableMatchesSolveTies checks the table against Solve on the
// tie-heavy matrix, where many patterns share an efficiency: at NC 2
// and 3, the table's pick equals HeadPattern of Solve's cover for every
// composition of size up to 12 and every head class present.
func TestPickTableMatchesSolveTies(t *testing.T) {
	for nc := 2; nc <= 3; nc++ {
		tab, patterns, eff := tableFor(tieMatrix(), nc)
		for n := 0; n <= 12; n++ {
			forEachComposition(n, func(counts [classify.NumClasses]int) {
				res, err := Solve(patterns, eff, counts, nc, nil)
				if err != nil {
					t.Fatal(err)
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

// TestPickTableTieRules pins the tie rules on literal efficiencies with
// exact ties, which the calibrated matrices never produce: each pick is
// the documented one, and HeadPattern of Solve's cover is the same.
func TestPickTableTieRules(t *testing.T) {
	patterns := Patterns(2)
	byName := func(name string) int {
		for k, p := range patterns {
			if p.String() == name {
				return k
			}
		}
		t.Fatalf("no pattern %s", name)
		return -1
	}
	for _, tc := range []struct {
		rule   string
		eff    []float64 // M-M M-MC M-C M-A MC-MC MC-C MC-A C-C C-A A-A
		counts [classify.NumClasses]int
		want   [classify.NumClasses]string
	}{
		{
			// One M and two A jobs leave M-A or A-A; the remainder
			// without an A comes first in d0-outer order and keeps M-A.
			rule:   "first remainder",
			eff:    []float64{0.03, 0.04, 0.05, 0.5, 0.06, 0.07, 0.08, 0.09, 0.1, 0.5},
			counts: [classify.NumClasses]int{1, 0, 0, 2},
			want:   [classify.NumClasses]string{"M-A", "", "", "M-A"},
		},
		{
			// The cover is M-C + M-A, equally efficient: head M takes
			// the lower index.
			rule:   "lower index on equal efficiency",
			eff:    []float64{0.125, 0.04, 0.5, 0.5, 0.06, 0.07, 0.08, 0.09, 0.125, 0.11},
			counts: [classify.NumClasses]int{2, 0, 1, 1},
			want:   [classify.NumClasses]string{"M-C", "", "M-C", "M-A"},
		},
		{
			// The covers M-M + C-A and M-C + M-A both sum to exactly
			// 0.5; M-M is the first pattern in index order that
			// reaches it, so its cover wins.
			rule:   "first pattern at the maximum",
			eff:    []float64{0.125, 0.04, 0.25, 0.25, 0.06, 0.07, 0.08, 0.09, 0.375, 0.11},
			counts: [classify.NumClasses]int{2, 0, 1, 1},
			want:   [classify.NumClasses]string{"M-M", "", "C-A", "C-A"},
		},
	} {
		tab := NewPickTable(patterns, tc.eff, 2)
		res, err := Solve(patterns, tc.eff, tc.counts, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for h := classify.Class(0); h < classify.NumClasses; h++ {
			want := -1
			if tc.want[h] != "" {
				want = byName(tc.want[h])
			}
			if got := tab.Pick(tc.counts, h); got != want {
				t.Errorf("%s, head %v: table picks %d, want %d (%s)", tc.rule, h, got, want, tc.want[h])
			}
			if got := HeadPattern(res, h); got != want {
				t.Errorf("%s, head %v: Solve picks %d, want %d (%s)", tc.rule, h, got, want, tc.want[h])
			}
		}
	}
}

// TestPickTableGrowsLazily: a table holds only the layers its requests
// reached, so compositions of at most 8 jobs never pay for the layers a
// 32-job window needs.
func TestPickTableGrowsLazily(t *testing.T) {
	for nc := 2; nc <= 4; nc++ {
		tab, _, _ := tableFor(randomMatrix(3), nc)
		if len(tab.layers) != 1 {
			t.Fatalf("NC %d: new table holds %d layers, want 1", nc, len(tab.layers))
		}
		for n := 0; n <= 8; n++ {
			tab.Pick([classify.NumClasses]int{n}, classify.ClassM)
			tab.Pick([classify.NumClasses]int{0, 0, 0, n}, classify.ClassA)
		}
		if want := 8/nc + 1; len(tab.layers) != want {
			t.Fatalf("NC %d: compositions up to 8 jobs grew %d layers, want %d", nc, len(tab.layers), want)
		}
		tab.Pick([classify.NumClasses]int{8, 8, 8, 8}, classify.ClassC)
		if want := 32/nc + 1; len(tab.layers) != want {
			t.Fatalf("NC %d: a 32-job composition grew %d layers, want %d", nc, len(tab.layers), want)
		}
		for k, layer := range tab.layers {
			s := k * nc
			if want := (s + 3) * (s + 2) * (s + 1) / 6; len(layer) != want {
				t.Fatalf("NC %d layer %d: %d states, want C(%d, 3) = %d", nc, k, len(layer), s+3, want)
			}
		}
	}
}

// TestPickWarmAllocs: once its layers exist, Pick never allocates.
func TestPickWarmAllocs(t *testing.T) {
	tab, _, _ := tableFor(randomMatrix(5), 3)
	counts := [classify.NumClasses]int{7, 9, 6, 10}
	tab.Pick(counts, classify.ClassM)
	if allocs := testing.AllocsPerRun(100, func() {
		tab.Pick(counts, classify.ClassMC)
		tab.Pick([classify.NumClasses]int{3, 1, 4, 1}, classify.ClassA)
	}); allocs != 0 {
		t.Fatalf("warm Pick allocates %.1f times per call, want 0", allocs)
	}
}

// fuzzSlowdowns encodes a slowdown matrix as fuzz input: 16 big-endian
// uint16 values v, read row-major as slowdown 1 + v/1024 (v mod 7169,
// so slowdowns span [1, 8] in steps of 1/1024).
func fuzzSlowdowns(m *interference.Matrix) []byte {
	out := make([]byte, 0, 32)
	for a := range m.Slowdown {
		for b := range m.Slowdown[a] {
			out = binary.BigEndian.AppendUint16(out, uint16(math.Round((m.Slowdown[a][b]-1)*1024)))
		}
	}
	return out
}

// FuzzMatchTable checks the table against Solve on arbitrary matrices,
// at NC 2 to 4 and up to 32 jobs. The objective of the state the table
// covers equals Solve's within 1e-9 relative, either way; Solve's cover
// forms ⌊n/NC⌋ groups that fit the counts; and the table's pick fits
// the counts and holds the head's class, or is -1. The committed input
// 599491ac12168b49 (NC 3, counts [7 2 6 4]) is a window whose two best
// matchings differ by less than 1e-6, closer than a solver that prunes
// at that tolerance can tell apart.
func FuzzMatchTable(f *testing.F) {
	tie := fuzzSlowdowns(tieMatrix())
	mixed := fuzzSlowdowns(randomMatrix(9))
	// Appendix A's queue: 2 M, 5 MC, 2 C and 5 A at NC 2.
	f.Add(mixed, uint8(0), uint8(2), uint8(5), uint8(2), uint8(5), uint8(3))
	// The tie-heavy matrix at NC 2 and 3.
	f.Add(tie, uint8(0), uint8(4), uint8(3), uint8(5), uint8(2), uint8(1))
	f.Add(tie, uint8(1), uint8(7), uint8(2), uint8(6), uint8(4), uint8(0))
	// NC 4 over 30 jobs.
	f.Add(mixed, uint8(2), uint8(8), uint8(7), uint8(9), uint8(6), uint8(2))
	// An empty class, asked about as the head.
	f.Add(mixed, uint8(1), uint8(0), uint8(9), uint8(4), uint8(8), uint8(0))
	// Every slowdown 1: every matching of a window ties exactly.
	f.Add([]byte{}, uint8(0), uint8(6), uint8(5), uint8(7), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, slow []byte, ncSel, c0, c1, c2, c3, head uint8) {
		m := &interference.Matrix{}
		for i := 0; i < 16; i++ {
			v := 0
			if 2*i+1 < len(slow) {
				v = int(binary.BigEndian.Uint16(slow[2*i:])) % 7169
			}
			m.Slowdown[i/4][i%4] = 1 + float64(v)/1024
			m.Samples[i/4][i%4] = 1
		}
		nc := 2 + int(ncSel%3)
		counts := [classify.NumClasses]int{int(c0 % 33), int(c1 % 33), int(c2 % 33), int(c3 % 33)}
		// Trim to at most 32 jobs, last class first.
		over := counts[0] + counts[1] + counts[2] + counts[3] - 32
		for c := classify.NumClasses - 1; over > 0; c-- {
			d := min(over, counts[c])
			counts[c] -= d
			over -= d
		}
		h := classify.Class(head % uint8(classify.NumClasses))

		tab, patterns, eff := tableFor(m, nc)
		res, err := Solve(patterns, eff, counts, nc, nil)
		if err != nil {
			t.Fatalf("NC %d counts %v: Solve: %v", nc, counts, err)
		}
		tol := 1e-9 * math.Max(1, math.Abs(res.Objective))
		if g := tab.state(counts).g; math.Abs(g-res.Objective) > tol {
			t.Fatalf("NC %d counts %v: table objective %v, Solve %v", nc, counts, g, res.Objective)
		}
		checkCover(t, res, counts)
		k := tab.Pick(counts, h)
		if k == -1 {
			return
		}
		if k < 0 || k >= len(patterns) {
			t.Fatalf("NC %d counts %v head %v: pick %d out of range", nc, counts, h, k)
		}
		if patterns[k].Count(h) == 0 {
			t.Fatalf("NC %d counts %v head %v: pick %v lacks the head's class", nc, counts, h, patterns[k])
		}
		for c := classify.Class(0); c < classify.NumClasses; c++ {
			if patterns[k].Count(c) > counts[c] {
				t.Fatalf("NC %d counts %v head %v: pick %v does not fit", nc, counts, h, patterns[k])
			}
		}
	})
}

// benchCompositions returns n fixed 32-job window compositions with
// classes drawn uniformly, and each one's head class (the first class
// present).
func benchCompositions(n int) ([][classify.NumClasses]int, []classify.Class) {
	comps := make([][classify.NumClasses]int, n)
	heads := make([]classify.Class, n)
	s := uint64(0xBE4C)
	for i := range comps {
		for j := 0; j < 32; j++ {
			s = s*6364136223846793005 + 1442695040888963407
			comps[i][s>>62]++
		}
		for comps[i][heads[i]] == 0 {
			heads[i]++
		}
	}
	return comps, heads
}

var sinkPick int

// BenchmarkMatchSolve is the methodology rung of the matcher: at NC 2
// to 4 over a fixed set of 32-job windows, "solve" answers one window
// with Solve on a reused Lattice, as an aged fleet dispatch does,
// "table-cold" builds a pick table and answers one window (the layers a
// 32-job window needs), and "table-warm" answers one window from a
// table that already holds them.
func BenchmarkMatchSolve(b *testing.B) {
	comps, heads := benchCompositions(16)
	m := randomMatrix(11)
	for nc := 2; nc <= 4; nc++ {
		_, patterns, eff := tableFor(m, nc)
		b.Run(fmt.Sprintf("nc=%d/solve", nc), func(b *testing.B) {
			var lat Lattice
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(patterns, eff, comps[i%len(comps)], nc, &lat); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nc=%d/table-cold", nc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(comps)
				sinkPick = NewPickTable(patterns, eff, nc).Pick(comps[j], heads[j])
			}
		})
		b.Run(fmt.Sprintf("nc=%d/table-warm", nc), func(b *testing.B) {
			tab := NewPickTable(patterns, eff, nc)
			tab.Pick(comps[0], heads[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(comps)
				sinkPick = tab.Pick(comps[j], heads[j])
			}
		})
	}
}
