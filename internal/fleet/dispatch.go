package fleet

import (
	"math"

	"repro/internal/classify"
	"repro/internal/match"
	"repro/internal/sched"
)

// windowFor sizes the ILP window for one dispatch from queue q. A pinned
// Config.Window wins; otherwise the window adapts to what the matcher
// can actually exploit:
//
//   - queue depth: half the backlog, clamped to [MinWindow, MaxWindow] —
//     a shallow queue cannot fill a big window, and past MaxWindow the
//     extra choice stops paying for the larger matching;
//   - class mix: the depth-sized window is scaled by the exponential of
//     the class entropy over the candidate prefix (the "effective number
//     of classes", 1..NumClasses). A one-class queue offers the matcher
//     no pairing choice, so a big window only delays jobs it will never
//     reorder; a uniform mix earns the full depth-sized window.
func (f *Fleet) windowFor(q *jobQueue, t int) int {
	if f.cfg.Window > 0 {
		return f.cfg.Window
	}
	w := q.Len() / 2
	if w < MinWindow {
		w = MinWindow
	}
	if w > MaxWindow {
		w = MaxWindow
	}
	prefix := q.window(MaxWindow)
	var counts [classify.NumClasses]int
	for _, j := range prefix {
		counts[f.class(j, t)]++
	}
	h := 0.0
	for _, n := range counts {
		if n > 0 {
			h -= plogp[len(prefix)][n]
		}
	}
	effective := math.Exp(h) // 1 (degenerate) .. NumClasses (uniform)
	scale := (effective - 1) / float64(classify.NumClasses-1)
	w = MinWindow + int(float64(w-MinWindow)*scale)
	return w
}

// plogp[n][c] is p·ln p for p = c/n, the class-entropy term windowFor
// subtracts for c of a window prefix's n jobs. A prefix holds at most
// MaxWindow jobs, so the table covers every term, each computed once by
// the expression windowFor used to evaluate per dispatch.
var plogp = func() (t [MaxWindow + 1][MaxWindow + 1]float64) {
	for n := 1; n <= MaxWindow; n++ {
		for c := 1; c <= n; c++ {
			p := float64(c) / float64(n)
			t[n][c] = p * math.Log(p)
		}
	}
	return t
}()

// dispatcher owns the event loop's dispatch scratch state: the pick
// tables, the aging-weight and class-pattern buffers group formation and
// the analytic engine reuse across calls, and the retired-flight pool.
// Every run builds its own (the Fleet itself is read-only after New).
// Everything here is buffer reuse and memoization — a dispatcher never
// changes what is dispatched.
type dispatcher struct {
	f *Fleet
	// picks holds one lazily grown matcher pick table per device type
	// (see formILPGroup); nil outside the ILP policies and at NC 1.
	picks []*match.PickTable
	// agingW is the window-aligned aging-weight scratch agingWeights
	// fills (index i weights window[i]), and lattice the matcher's
	// buffers for the aged dispatches it solves.
	agingW  []float64
	lattice match.Lattice
	// patBuf is the reused class-pattern scratch for modelReport.
	patBuf match.Pattern
	// free pools retired and evicted modeled flights for reuse: their
	// member slice and report buffers keep their capacity, so
	// steady-state dispatch recycles records instead of allocating one
	// per group. flights counts the records newFlight has allocated.
	free    []*inflight
	flights int
}

// newDispatcher builds the per-event-loop scratch state.
func (f *Fleet) newDispatcher() *dispatcher {
	d := &dispatcher{f: f}
	if f.ncEff != nil {
		d.picks = make([]*match.PickTable, len(f.types))
		for t := range d.picks {
			d.picks[t] = match.NewPickTable(f.ncPatterns, f.ncEff[t], f.cfg.NC)
		}
	}
	return d
}

// newFlight returns a zeroed in-flight record, reusing a pooled one's
// buffers when available.
func (d *dispatcher) newFlight() *inflight {
	if n := len(d.free); n > 0 {
		fl := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return fl
	}
	d.flights++
	return &inflight{}
}

// recycle returns a modeled flight's record to the pool, keeping the
// member slice and report buffers (which the modeled engine owns and
// overwrites wholesale) but dropping every reference. A flight may be
// recycled only once nothing refers to it: a retired one after retire
// popped its resolved-heap entry, an evicted one once the resolved
// heap's peek dropped its stale entry (flightHeap.pool), never at
// release.
func (d *dispatcher) recycle(fl *inflight) {
	jobs := fl.jobs
	for i := range jobs {
		jobs[i] = nil
	}
	apps, classes, sts := fl.rep.Apps[:0], fl.rep.Classes[:0], fl.rep.Stats[:0]
	*fl = inflight{}
	fl.jobs = jobs[:0]
	fl.rep.Apps, fl.rep.Classes, fl.rep.Stats = apps, classes, sts
	d.free = append(d.free, fl)
}

// agingWeights fills the window-aligned aging scratch: entry i is
// window[i]'s wait normalized to the longest wait in the window, in
// [0,1]. A nil result means aging is off (zero weight or an empty
// window).
func (d *dispatcher) agingWeights(window []*JobRecord, now uint64) []float64 {
	if d.f.cfg.Aging == 0 || len(window) == 0 {
		return nil
	}
	maxWait := uint64(0)
	for _, j := range window {
		if w := now - j.Arrival; w > maxWait {
			maxWait = w
		}
	}
	if maxWait == 0 {
		return nil
	}
	d.agingW = d.agingW[:0]
	for _, j := range window {
		d.agingW = append(d.agingW, float64(now-j.Arrival)/float64(maxWait))
	}
	return d.agingW
}

// containsJob reports whether a formed group (at most NC members)
// already holds j — the linear scan that replaced the per-dispatch
// taken maps, allocation-free and faster at group sizes up to 8.
func containsJob(members []*JobRecord, j *JobRecord) bool {
	for _, m := range members {
		if m == j {
			return true
		}
	}
	return false
}

// formGroup pops the next co-run group from the live queue (jobs that
// have arrived and are not yet dispatched, priority order) for a device
// of type t at fleet cycle now. It returns the members and whether the
// windowed ILP made the choice.
//
// Serial and FCFS reproduce the paper's baselines online; they ignore
// the device type (naive placement). The ILP policies adapt the offline
// matcher to the arrival setting and are placement-aware: classes and
// the interference matrix are the ones calibrated on type t's hardware,
// so the same queue can yield different groups for different device
// generations:
//
//   - shallow queue (fewer than GreedyBelow waiting): greedy formation
//     seeded with the highest-priority job, adding whichever waiting job
//     maximizes the group's Equation 3.4 efficiency. A deep
//     optimization over two jobs is pointless, and dispatching the
//     oldest job immediately keeps latency low.
//   - deep queue: match the first windowFor jobs' class composition as
//     the paper's ILP does and materialize the single best pattern of
//     the optimal matching that includes the head job's class.
//     Requiring the head job to be schedulable guards against
//     starvation — the matching alone would happily strand an awkward
//     class forever while fresher arrivals overtake it.
//
// With Config.Aging set, both paths weight efficiency by member wait:
// patterns (and greedy candidates) whose members have waited longest get
// their efficiency multiplied by 1+Aging*w, so tail latency competes
// with raw packing. With SLO dispatch on, the queue is priority-ordered,
// so the seed job is the oldest waiting latency job whenever one exists.
// The members are appended into dst (the flight's reused member
// buffer, passed in truncated to length zero), so steady-state
// dispatch forms groups without allocating.
func (d *dispatcher) formGroup(dst []*JobRecord, queue *jobQueue, t int, now uint64) (members []*JobRecord, usedILP bool) {
	f := d.f
	switch f.cfg.Policy {
	case sched.Serial:
		dst = append(dst, queue.at(0))
		queue.advance(1)
		return dst, false
	case sched.FCFS, sched.ProfileBased:
		n := min(f.cfg.NC, queue.Len())
		dst = append(dst, queue.window(n)...)
		queue.advance(n)
		return dst, false
	}
	// ILP / ILPSMRA. A one-member group has no pattern to choose.
	if f.cfg.NC >= 2 && queue.Len() >= f.cfg.GreedyBelow && queue.Len() >= f.cfg.NC {
		if g := d.formILPGroup(dst, queue, t, now); g != nil {
			return g, true
		}
	}
	return d.formGreedyGroup(dst[:0], queue, t, now), false
}

// formGreedyGroup starts from the head waiting job and repeatedly adds
// the job whose inclusion yields the highest (age-weighted) pattern
// efficiency on device type t's interference matrix. Candidates come
// from the same window prefix the ILP would see, so a deep queue does
// not make dispatch linear in the backlog.
//
//simlint:hotpath
func (d *dispatcher) formGreedyGroup(dst []*JobRecord, queue *jobQueue, t int, now uint64) []*JobRecord {
	f := d.f
	window := queue.window(f.windowFor(queue, t))
	aging := d.agingWeights(window, now)
	dst = append(dst, window[0])
	for len(dst) < f.cfg.NC {
		best := -1
		bestEff := -1.0
		for wi, cand := range window {
			if containsJob(dst, cand) {
				continue
			}
			eff := f.patternEff(t, dst, cand)
			if aging != nil {
				eff *= 1 + f.cfg.Aging*aging[wi]
			}
			// Strict > keeps the earliest-arrived candidate on ties.
			if eff > bestEff {
				best, bestEff = wi, eff
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, window[best])
	}
	queue.removeJobs(dst)
	return dst
}

// formILPGroup matches the queue's window-prefix class composition as
// seen by device type t and materializes one group: the most efficient
// pattern of the optimal matching that can dispatch the head waiting job
// (match.HeadPattern). It returns nil when the matching holds no pattern
// containing the head job's class (the caller falls back to greedy
// formation). With aging off the pick is a pure function of (type,
// counts), read from the type's pick table. With aging active the
// pattern efficiencies are age-weighted per class
// (match.AgedEfficiencies), so a pattern containing a starved class
// outbids a marginally better-packing one, and match.Solve matches each
// dispatch afresh, reusing the dispatcher's lattice buffers.
//
//simlint:hotpath
func (d *dispatcher) formILPGroup(dst []*JobRecord, queue *jobQueue, t int, now uint64) []*JobRecord {
	f := d.f
	window := queue.window(f.windowFor(queue, t))
	var counts [classify.NumClasses]int
	for _, j := range window {
		counts[f.class(j, t)]++
	}
	oldest := f.class(window[0], t)
	var best int
	if aging := d.agingWeights(window, now); aging != nil {
		// Waits change every cycle, so the aged efficiencies do not
		// repeat and a table over them would never be reused; the
		// zero-allocation contract covers the aging-off path.
		var classWait [classify.NumClasses]float64
		for wi, j := range window {
			if c := f.class(j, t); aging[wi] > classWait[c] {
				classWait[c] = aging[wi]
			}
		}
		eff := match.AgedEfficiencies(f.ncPatterns, f.ncEff[t], classWait, f.cfg.Aging)
		res, err := match.Solve(f.ncPatterns, eff, counts, f.cfg.NC, &d.lattice)
		if err != nil {
			return nil
		}
		best = match.HeadPattern(res, oldest)
	} else {
		best = d.picks[t].Pick(counts, oldest)
	}
	if best < 0 {
		return nil
	}
	// Materialize with the head waiting job of each required class.
	for _, cls := range f.ncPatterns[best] {
		found := false
		for _, cand := range window {
			if f.class(cand, t) == cls && !containsJob(dst, cand) {
				dst = append(dst, cand)
				found = true
				break
			}
		}
		if !found {
			return nil // matcher over-committed; should not happen
		}
	}
	queue.removeJobs(dst)
	return dst
}

// --- Memoized matcher inputs -------------------------------------------
//
// formILPGroup used to re-enumerate every class pattern and re-score it
// against the matrix on every dispatch decision, and the greedy scorer
// allocated and sorted a fresh Pattern per candidate. At warehouse
// scale (tens of thousands of dispatches per run) that dominated the
// dispatcher, so New precomputes, per device type:
//
//   - the pattern list for every group size up to NC and each pattern's
//     Equation 3.4 efficiency (effAll, looked up by class-count key);
//   - the size-NC pattern/efficiency table the matcher consumes.
//
// The tables serve the ILP policies at every NC >= 2, which is every
// configuration that scores a pattern. They hold exactly the values
// match.Efficiency computes. Each dispatcher builds a match.PickTable
// per device type over the size-NC table: with aging off, group
// formation is a pure function of (type, window counts), and the pick
// table answers it by lookup, growing only as far as the windows it
// sees. With aging on, match.Solve matches the same size-NC patterns
// under the window's aged efficiencies.

// classKey is class c's unit in a pattern key: a pattern's key sums its
// members' units, so it counts each class in its own 16 bits and does
// not depend on member order.
func classKey(c classify.Class) uint64 { return 1 << (16 * uint64(c)) }

// buildMatchTables precomputes the pattern/efficiency tables; called
// from New after validation (matrices exist for the ILP policies).
func (f *Fleet) buildMatchTables() {
	if f.cfg.Policy != sched.ILP && f.cfg.Policy != sched.ILPSMRA || f.cfg.NC < 2 {
		return
	}
	f.patIndex = make(map[uint64]int)
	var all []match.Pattern
	for size := 2; size <= f.cfg.NC; size++ {
		for _, p := range match.Patterns(size) {
			key := uint64(0)
			for _, c := range p {
				key += classKey(c)
			}
			f.patIndex[key] = len(all)
			all = append(all, p)
		}
	}
	f.ncPatterns = match.Patterns(f.cfg.NC)
	f.effAll = make([][]float64, len(f.types))
	f.ncEff = make([][]float64, len(f.types))
	for t := range f.types {
		m := f.types[t].Matrix()
		eff := make([]float64, len(all))
		for i, p := range all {
			eff[i] = match.Efficiency(m, p)
		}
		f.effAll[t] = eff
		f.ncEff[t] = match.Efficiencies(m, f.ncPatterns)
	}
}

// patternEff scores the group members plus one candidate: the memoized
// Equation 3.4 efficiency of their class multiset on device type t.
//
//simlint:hotpath
func (f *Fleet) patternEff(t int, members []*JobRecord, extra *JobRecord) float64 {
	key := classKey(f.class(extra, t))
	for _, m := range members {
		key += classKey(f.class(m, t))
	}
	return f.effAll[t][f.patIndex[key]]
}
