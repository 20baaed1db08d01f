// Package match implements the paper's contention-minimization step
// (Section 3.2.3): given the per-class interference matrix and the class
// composition of the waiting queue, it chooses how many co-run groups of
// each class pattern to form so that total inverse slowdown — and hence
// device throughput — is maximized.
//
// That choice is the integer program of Equations 3.3–3.7, and one
// exact dynamic program over class counts solves it. Solve answers a
// single queue: the offline scheduler, Appendix A, and the fleet's aging
// path, whose efficiencies change on every dispatch. PickTable answers
// the fleet's repeated question — which pattern of the optimal matching
// dispatches the head job — from lattice layers it grows once and then
// reads in nanoseconds. Both break ties by the rule stated on Solve, and
// HeadPattern is the pick they share.
package match

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/interference"
)

// Pattern is a multiset of NC classes co-scheduled on the device, kept
// in non-decreasing class order (Equation 3.1's vector form).
type Pattern []classify.Class

// String renders the pattern as "M-MC" style.
func (p Pattern) String() string {
	s := ""
	for i, c := range p {
		if i > 0 {
			s += "-"
		}
		s += c.String()
	}
	return s
}

// Count returns how many members of class c the pattern has.
func (p Pattern) Count(c classify.Class) int {
	n := 0
	for _, x := range p {
		if x == c {
			n++
		}
	}
	return n
}

// Patterns enumerates every class multiset of size nc in lexicographic
// order; the count is NP = C(NT+NC-1, NC) (Equation 3.2).
func Patterns(nc int) []Pattern {
	var out []Pattern
	var rec func(start classify.Class, cur Pattern)
	rec = func(start classify.Class, cur Pattern) {
		if len(cur) >= nc {
			out = append(out, append(Pattern(nil), cur...))
			return
		}
		for c := start; c < classify.NumClasses; c++ {
			rec(c, append(cur, c))
		}
	}
	rec(0, nil)
	return out
}

// NumPatterns returns C(NT+NC-1, NC).
func NumPatterns(nc int) int {
	n := int(classify.NumClasses) + nc - 1
	k := nc
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

// MemberSlowdown predicts member i's slowdown under pattern p from the
// interference matrix — the s_i ingredient of Equation 3.4. Besides the
// efficiency computation below, the fleet layer uses it to estimate
// when a running group will free its device (preemption decisions).
// Member order within p does not matter; the lookups are symmetric.
func MemberSlowdown(m *interference.Matrix, p Pattern, i int) float64 {
	ci := p[i]
	var s float64
	switch len(p) {
	case 1:
		s = 1
	case 2:
		s = m.At(ci, p[1-i])
	case 3:
		s = m.TripleSlowdown(ci, p[(i+1)%3], p[(i+2)%3])
	default:
		// General composition: multiply pairwise contention factors.
		s = float64(len(p))
		for j, cj := range p {
			if j != i {
				s *= m.At(ci, cj) / 2
			}
		}
	}
	if s <= 0 {
		s = float64(len(p))
	}
	return s
}

// Efficiency computes e_k for a pattern (Equation 3.4): the mean of the
// members' inverse slowdowns under that co-schedule.
func Efficiency(m *interference.Matrix, p Pattern) float64 {
	sum := 0.0
	for i := range p {
		sum += 1 / MemberSlowdown(m, p, i)
	}
	return sum / float64(len(p))
}

// AgedEfficiencies rescales pattern efficiencies by member wait time
// (aging): pattern k's efficiency is multiplied by 1 + aging*w̄, where
// w̄ is the mean of classWait over the pattern's members and
// classWait[c] is class c's wait signal normalized to [0,1] (0 = fresh,
// 1 = the longest-waiting job in the dispatch window). With aging == 1
// a pattern of maximally starved members doubles its appeal, so the
// windowed ILP optimizes tail latency alongside raw packing efficiency;
// aging == 0 returns a copy of eff unchanged.
func AgedEfficiencies(patterns []Pattern, eff []float64, classWait [classify.NumClasses]float64, aging float64) []float64 {
	out := make([]float64, len(eff))
	for k, p := range patterns {
		sum := 0.0
		for _, c := range p {
			sum += classWait[c]
		}
		out[k] = eff[k] * (1 + aging*sum/float64(len(p)))
	}
	return out
}

// Result is the matcher's output: how many groups of each pattern to
// form.
type Result struct {
	NC        int
	Patterns  []Pattern
	Counts    []int
	Eff       []float64
	Objective float64
	// Groups is the total number of full groups (L in the paper).
	Groups int
}

// HeadPattern returns the pattern group formation takes from res for a
// queue whose head job has class head: among the patterns the solution
// uses that contain head, the most efficient one (res.Eff), the lowest
// index on ties. It returns -1 when no used pattern contains head.
func HeadPattern(res Result, head classify.Class) int {
	best := -1
	for k, n := range res.Counts {
		if n == 0 || res.Patterns[k].Count(head) == 0 {
			continue
		}
		if best < 0 || res.Eff[k] > res.Eff[best] {
			best = k
		}
	}
	return best
}

// String renders the selected patterns.
func (r Result) String() string {
	s := fmt.Sprintf("f=%.4f groups=%d:", r.Objective, r.Groups)
	for i, c := range r.Counts {
		if c > 0 {
			s += fmt.Sprintf(" %dx%s", c, r.Patterns[i])
		}
	}
	return s
}

// Efficiencies returns each pattern's Equation 3.4 efficiency on m.
func Efficiencies(m *interference.Matrix, patterns []Pattern) []float64 {
	eff := make([]float64, len(patterns))
	for k, p := range patterns {
		eff[k] = Efficiency(m, p)
	}
	return eff
}

// Lattice holds Solve's dynamic-program buffers between solves, so a
// caller that solves repeatedly reuses them. The zero value is ready to
// use; a Lattice is not safe for concurrent use.
type Lattice struct {
	// moves[k] takes pattern k off a point.
	moves []latticeMove
	// from[c] is the index of the first pattern whose lowest class is
	// c; Patterns' lexicographic order keeps those contiguous.
	from   [classify.NumClasses + 1]int
	points []latticePoint
	// epoch numbers the current solve: a point whose epoch differs is
	// not yet solved, so the buffer is never cleared.
	epoch uint32
}

// latticeMove is one pattern as a step down the sub-lattice.
type latticeMove struct {
	// need counts the pattern's members of each class; off is the
	// index distance the pattern spans in the current sub-lattice.
	need [classify.NumClasses]int
	off  int
	eff  float64
}

// latticePoint is one count vector of the sub-lattice.
type latticePoint struct {
	// g is the best objective over exact covers of the point, and pick
	// the pattern that cover takes first (-1 at the origin).
	g     float64
	pick  int32
	epoch uint32
}

// Solve chooses the optimal pattern multiplicities for a queue holding
// counts[c] applications of class c: ⌊n/nc⌋ groups, each one of
// patterns (which must be Patterns(nc)), that maximize the sum of their
// efficiencies eff[k] (Equations 3.3–3.7; as in the appendix, the
// n mod nc applications left over wait).
//
// It is exact: a dynamic program over the sub-lattice of count vectors
// at or below counts, memoized top down. A point's best cover takes a
// pattern that holds the point's lowest present class (every exact
// cover has one) and the best cover of the rest.
//
// Ties are broken deterministically, and PickTable breaks them the same
// way:
//   - a point's cover takes the first pattern in index order that
//     reaches the maximum (the patterns holding the lowest class come
//     first among those that fit, because Patterns is lexicographic);
//   - the leftover applications are tried with the class-M count
//     outermost and ascending, then MC, then C, the first maximum kept;
//   - HeadPattern picks from the cover the most efficient pattern
//     holding the head's class, the lower index on equal efficiency.
//
// Its cost is the sub-lattice's ∏(counts[c]+1) points of 16 bytes: at
// most 6,561 for a 32-job fleet window and 1,296 for the paper's
// 20-application queues. A 200-application queue of 50 per class spans
// 6.8 million points (108 MB) and took 0.14 s at NC 2 and 0.35 s at
// NC 3 on a 2-vCPU Xeon. lat keeps the lattice between solves; nil
// solves with a fresh one.
func Solve(patterns []Pattern, eff []float64, counts [classify.NumClasses]int, nc int, lat *Lattice) (Result, error) {
	if nc < 2 {
		return Result{}, fmt.Errorf("match: group size %d must be at least 2", nc)
	}
	if lat == nil {
		lat = new(Lattice)
	}
	top, g := lat.solve(patterns, eff, counts, nc)
	res := Result{NC: nc, Patterns: patterns, Eff: eff, Counts: make([]int, len(patterns)), Objective: g}
	for i := top; i != 0; {
		k := lat.points[i].pick
		res.Counts[k]++
		res.Groups++
		i -= lat.moves[k].off
	}
	return res, nil
}

// solve fills the sub-lattice below counts and returns the index of the
// point the optimal matching covers and its objective.
func (l *Lattice) solve(patterns []Pattern, eff []float64, counts [classify.NumClasses]int, nc int) (int, float64) {
	var stride [classify.NumClasses]int
	size := 1
	for c, n := range counts {
		stride[c] = size
		size *= n + 1
	}
	l.moves = l.moves[:0]
	for k, p := range patterns {
		mv := latticeMove{eff: eff[k]}
		for _, c := range p {
			mv.need[c]++
			mv.off += stride[c]
		}
		l.moves = append(l.moves, mv)
		for c := p[0] + 1; c <= classify.NumClasses; c++ {
			l.from[c] = k + 1
		}
	}
	if size > len(l.points) {
		l.points = make([]latticePoint, size)
		l.epoch = 0
	}
	l.epoch++
	if l.epoch == 0 {
		clear(l.points)
		l.epoch = 1
	}
	l.points[0] = latticePoint{pick: -1, epoch: l.epoch}

	n := counts[0] + counts[1] + counts[2] + counts[3]
	r := n % nc
	best, bestG := -1, 0.0
	for d0 := 0; d0 <= min(r, counts[0]); d0++ {
		for d1 := 0; d1 <= min(r-d0, counts[1]); d1++ {
			for d2 := 0; d2 <= min(r-d0-d1, counts[2]); d2++ {
				d3 := r - d0 - d1 - d2
				if d3 > counts[3] {
					continue
				}
				v := [classify.NumClasses]int{counts[0] - d0, counts[1] - d1, counts[2] - d2, counts[3] - d3}
				i := v[0]*stride[0] + v[1]*stride[1] + v[2]*stride[2] + v[3]*stride[3]
				if g := l.value(v, i); best < 0 || g > bestG {
					best, bestG = i, g
				}
			}
		}
	}
	return best, bestG
}

// value returns the best objective over exact covers of point v (at
// index i), solving it first if this solve has not.
func (l *Lattice) value(v [classify.NumClasses]int, i int) float64 {
	if pt := &l.points[i]; pt.epoch == l.epoch {
		return pt.g
	}
	return l.cover(v, i)
}

// cover solves point v (at index i, not the origin) from the points
// below it.
func (l *Lattice) cover(v [classify.NumClasses]int, i int) float64 {
	low := 0
	for v[low] == 0 {
		low++
	}
	best, bestG := -1, 0.0
	for k := l.from[low]; k < l.from[low+1]; k++ {
		mv := &l.moves[k]
		if mv.need[0] > v[0] || mv.need[1] > v[1] || mv.need[2] > v[2] || mv.need[3] > v[3] {
			continue
		}
		u := [classify.NumClasses]int{v[0] - mv.need[0], v[1] - mv.need[1], v[2] - mv.need[2], v[3] - mv.need[3]}
		if g := mv.eff + l.value(u, i-mv.off); best < 0 || g > bestG {
			best, bestG = k, g
		}
	}
	l.points[i] = latticePoint{g: bestG, pick: int32(best), epoch: l.epoch}
	return bestG
}
