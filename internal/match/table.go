package match

import (
	"fmt"
	"math"

	"repro/internal/classify"
)

// PickTable answers the fleet dispatcher's matcher question without a
// solve per dispatch: for a window's class composition and the class of
// its head job, which pattern does the optimal matching (Equations
// 3.3–3.7) use to dispatch the head? It is Solve's dynamic program laid
// out over the whole class-count lattice. Layer k holds every count
// vector of size k·NC together with g, the best objective over exact
// covers of that vector by k patterns, and the head pick of that best
// cover; a composition whose size is not a multiple of NC drops the
// remainder that leaves the best cover.
//
// Layers grow lazily: a table only ever holds the layers the
// compositions it was asked about reach, so small fleets pay for small
// tables. A table is not safe for concurrent use.
//
// Ties are broken by Solve's rule. A state's cover tries every pattern
// that fits, not only those holding its lowest class, but the first
// pattern in index order at the maximum is one of those, so Pick is
// HeadPattern of Solve's cover (the tests check both against a
// brute-force oracle).
type PickTable struct {
	nc  int
	eff []float64
	// need[k] is pattern k's count of each class.
	need   [][classify.NumClasses]int
	layers [][]pickState
}

// pickState is one lattice point of a layer.
type pickState struct {
	// g is the best objective over exact covers of the point.
	g float64
	// best[h] is the pattern index HeadPattern would return for head
	// class h on that cover, or -1. Indices fit int16 while
	// NumPatterns(nc) does, which holds for every nc up to 55.
	best [classify.NumClasses]int16
}

// The lattice ranking below spells out four classes.
var _ [4 - classify.NumClasses]struct{}
var _ [classify.NumClasses - 4]struct{}

// NewPickTable builds an empty table over patterns (Patterns(nc)) with
// efficiencies eff[k] for pattern k. Only the size-0 layer exists until
// Pick asks for more; eff is read, not copied, and must not change.
func NewPickTable(patterns []Pattern, eff []float64, nc int) *PickTable {
	t := &PickTable{
		nc:     nc,
		eff:    eff,
		need:   make([][classify.NumClasses]int, len(patterns)),
		layers: [][]pickState{{{best: [classify.NumClasses]int16{-1, -1, -1, -1}}}},
	}
	for k, p := range patterns {
		for _, c := range p {
			t.need[k][c]++
		}
	}
	return t
}

// Pick returns the index of the pattern group formation takes for a
// window with the given class counts whose head job has class head: the
// pattern HeadPattern picks from an optimal matching of counts into
// ⌊n/NC⌋ groups. It returns -1 when no pattern of that matching holds
// the head's class.
//
//simlint:hotpath
func (t *PickTable) Pick(counts [classify.NumClasses]int, head classify.Class) int {
	return int(t.state(counts).best[head])
}

// state returns the layer state an optimal matching of counts covers:
// the best sub-composition counts-d of layer ⌊n/NC⌋ over remainders d
// of size n mod NC, tried with d0 outermost and ascending, then d1,
// then d2, the first maximum winning. With no remainder that is counts
// itself.
//
//simlint:hotpath
func (t *PickTable) state(counts [classify.NumClasses]int) *pickState {
	n := counts[0] + counts[1] + counts[2] + counts[3]
	k := n / t.nc
	if k >= len(t.layers) {
		t.grow(k)
	}
	layer := t.layers[k]
	r := n - k*t.nc
	best := -1
	for d0 := 0; d0 <= min(r, counts[0]); d0++ {
		for d1 := 0; d1 <= min(r-d0, counts[1]); d1++ {
			for d2 := 0; d2 <= min(r-d0-d1, counts[2]); d2++ {
				if r-d0-d1-d2 > counts[3] {
					continue
				}
				i := rank(counts[0]-d0, counts[1]-d1, counts[2]-d2)
				if best < 0 || layer[i].g > layer[best].g {
					best = i
				}
			}
		}
	}
	return &layer[best]
}

// rank is the index of count vector (a, b, c, s-a-b-c) within the layer
// of size s: the colexicographic rank of the 3-subset {a, a+b+1,
// a+b+c+2} of {0, ..., s+2}, which numbers the layer's C(s+3, 3) points
// densely without depending on s.
func rank(a, b, c int) int {
	x1 := a + b + 1
	x2 := a + b + c + 2
	return a + x1*(x1-1)/2 + x2*(x2-1)*(x2-2)/6
}

// grow builds the layers up to k, each from the one below it.
func (t *PickTable) grow(k int) {
	if len(t.need) > math.MaxInt16 {
		panic(fmt.Sprintf("match: %d patterns overflow the pick table's int16 indices", len(t.need)))
	}
	for len(t.layers) <= k {
		prev := t.layers[len(t.layers)-1]
		s := len(t.layers) * t.nc
		layer := make([]pickState, (s+3)*(s+2)*(s+1)/6)
		// Walk the layer in rank order: x0 < x1 < x2 are the positions
		// rank encodes, so i counts up by one per point.
		i := 0
		for x2 := 2; x2 <= s+2; x2++ {
			for x1 := 1; x1 < x2; x1++ {
				for x0 := 0; x0 < x1; x0++ {
					u := [classify.NumClasses]int{x0, x1 - x0 - 1, x2 - x1 - 1, s + 2 - x2}
					layer[i] = t.cover(u, prev)
					i++
				}
			}
		}
		t.layers = append(t.layers, layer)
	}
}

// cover computes point u's state from the layer below: the first
// pattern in index order that maximizes eff[p] + g(u-p), and the head
// picks of the resulting cover (u-p's picks merged with p: higher
// efficiency wins, then the lower index).
func (t *PickTable) cover(u [classify.NumClasses]int, prev []pickState) pickState {
	bestK, bestChild := -1, 0
	bestG := 0.0
	for k, need := range t.need {
		if need[0] > u[0] || need[1] > u[1] || need[2] > u[2] || need[3] > u[3] {
			continue
		}
		child := rank(u[0]-need[0], u[1]-need[1], u[2]-need[2])
		if g := t.eff[k] + prev[child].g; bestK < 0 || g > bestG {
			bestK, bestChild, bestG = k, child, g
		}
	}
	st := pickState{g: bestG, best: prev[bestChild].best}
	for h := range st.best {
		if t.need[bestK][h] == 0 {
			continue
		}
		if b := st.best[h]; b < 0 || t.eff[bestK] > t.eff[b] || t.eff[bestK] == t.eff[b] && bestK < int(b) {
			st.best[h] = int16(bestK)
		}
	}
	return st
}
