// Package ilp is a small exact integer linear programming solver: a
// two-phase primal simplex over dense tableaus for the LP relaxation
// (simplex.go), wrapped in best-first branch-and-bound for integrality
// (branchbound.go).
//
// The paper solves its contention-minimization matching (Section 3.2.3,
// Appendix A) with an off-the-shelf ILP solver; problem instances there
// are tiny (≤ 20 pattern variables, ≤ 5 constraints), which this
// implementation solves exactly in microseconds using only the standard
// library.
//
// A Problem is a maximization over non-negative variables: an objective
// vector, a list of ≤ / ≥ / = constraints, and an optional per-variable
// integrality mask. Solve returns an optimal Solution or a status
// (Infeasible, Unbounded) — there is no tolerance tuning to do at these
// problem sizes. The matcher's one-shot solves (internal/match: the
// offline scheduler, Appendix A, and the fleet's aging path) bottom out
// here; see match.BuildProblem for the exact formulation of Equations
// 3.3–3.7. The fleet's unaged dispatches read match.PickTable instead.
package ilp
