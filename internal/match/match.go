// Package match implements the paper's contention-minimization step
// (Section 3.2.3): given the per-class interference matrix and the class
// composition of the waiting queue, it chooses how many co-run groups of
// each class pattern to form so that total inverse slowdown — and hence
// device throughput — is maximized, solving the integer linear program
// of Equations 3.3–3.7 exactly.
package match

import (
	"fmt"
	"math"

	"repro/internal/classify"
	"repro/internal/ilp"
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

// BuildProblem assembles the ILP of Equations 3.3–3.7 for a queue with
// queueCounts applications of each class, forming groups of size nc.
// eff[k] must hold e_k for pattern k.
func BuildProblem(patterns []Pattern, eff []float64, queueCounts [classify.NumClasses]int, nc int) ilp.Problem {
	np := len(patterns)
	total := 0
	for _, n := range queueCounts {
		total += n
	}
	groups := total / nc
	cons := make([]ilp.Constraint, 0, int(classify.NumClasses)+1)
	// Per-class usage cannot exceed availability (Equation 3.6; the
	// appendix relaxes the equality to ≤ so a remainder is allowed).
	for c := classify.Class(0); c < classify.NumClasses; c++ {
		row := make([]float64, np)
		for k, p := range patterns {
			row[k] = float64(p.Count(c))
		}
		cons = append(cons, ilp.Constraint{Coeffs: row, Rel: ilp.LE, RHS: float64(queueCounts[c])})
	}
	// Exactly L groups are formed (Equation 3.7).
	ones := make([]float64, np)
	for k := range ones {
		ones[k] = 1
	}
	cons = append(cons, ilp.Constraint{Coeffs: ones, Rel: ilp.EQ, RHS: float64(groups)})
	integer := make([]bool, np)
	for k := range integer {
		integer[k] = true
	}
	return ilp.Problem{Objective: eff, Constraints: cons, Integer: integer}
}

// Solve chooses the optimal pattern multiplicities for the queue.
func Solve(m *interference.Matrix, queueCounts [classify.NumClasses]int, nc int) (Result, error) {
	patterns := Patterns(nc)
	eff := make([]float64, len(patterns))
	for k, p := range patterns {
		eff[k] = Efficiency(m, p)
	}
	return SolveWithEff(patterns, eff, queueCounts, nc)
}

// SolveWithEff is Solve with externally supplied pattern efficiencies
// (used by tests reproducing Appendix A's literal numbers).
func SolveWithEff(patterns []Pattern, eff []float64, queueCounts [classify.NumClasses]int, nc int) (Result, error) {
	if nc < 2 {
		return Result{}, fmt.Errorf("match: group size %d must be at least 2", nc)
	}
	prob := BuildProblem(patterns, eff, queueCounts, nc)
	sol, err := ilp.Solve(prob)
	if err != nil {
		return Result{}, err
	}
	if sol.Status != ilp.Optimal {
		return Result{}, fmt.Errorf("match: ILP %v", sol.Status)
	}
	res := Result{
		NC:        nc,
		Patterns:  patterns,
		Eff:       eff,
		Counts:    make([]int, len(patterns)),
		Objective: sol.Objective,
	}
	for k, v := range sol.X {
		res.Counts[k] = int(math.Round(v))
		res.Groups += res.Counts[k]
	}
	return res, nil
}
