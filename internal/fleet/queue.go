package fleet

import "sort"

// jobQueue is the live dispatch queue: jobs that have arrived and are
// not (currently) dispatched, in dispatch-priority order. It is two
// head-indexed runs, seg[Latency] then seg[Batch], each sorted by
// (arrival cycle, arrival index); with SLO dispatch off every job goes
// in seg[Batch], so admission order is preserved exactly. Priority
// order is the latency run followed by the batch run: evicted batch
// jobs re-enter the batch run at their arrival-order position, ahead of
// younger waiting batch work and behind every latency job. The split
// keeps each operation the event loop performs per dispatch cheap at
// warehouse scale:
//
//   - insert: binary search within the job's own run. Arrivals are
//     admitted in cycle order, so in the common case the position is
//     that run's tail and insertion is an O(1) append — a latency
//     arrival never shifts the batch backlog. Only evicted jobs
//     re-entering a run pay a mid-run copy.
//   - window: the first n jobs in priority order, aliasing one run, or
//     assembled into a reused scratch slice when the prefix spans both.
//   - removeJobs: group formation only ever draws members from the
//     window (at most MaxWindow deep, or the FCFS/Serial head), so each
//     run compacts its surviving prefix entries onto the freed slots and
//     advances its head — O(window), independent of the backlog depth
//     behind it.
type jobQueue struct {
	seg [2]jobRun
	// slo selects SLO-aware ordering (latency before batch).
	slo bool
	// scratch assembles windows that span both runs.
	scratch []*job
	// latency counts waiting Latency-class jobs, maintained by the
	// mutators below so the observability sampler reads the queue's class
	// split in O(1) instead of walking the backlog every interval.
	latency int
	// work sums the waiting jobs' mean solo cycles (appInfo.soloEst),
	// maintained alongside latency so the admission predictor reads the
	// backlog's service demand in O(1). cowork sums the
	// interference-inflated estimates (appInfo.coEst) the modeled
	// predictor reads instead; both are two integer ops per mutation, so
	// they are kept unconditionally.
	work   uint64
	cowork uint64
}

// jobRun is one head-indexed run of the queue, sorted by (arrival, id).
type jobRun struct {
	buf  []*job
	head int
}

// live is the run's waiting jobs.
func (r *jobRun) live() []*job { return r.buf[r.head:] }

// Len is the number of waiting jobs.
func (q *jobQueue) Len() int { return len(q.seg[Latency].live()) + len(q.seg[Batch].live()) }

// runOf is the run j waits in.
func (q *jobQueue) runOf(j *job) SLOClass {
	if q.slo && j.slo == Latency {
		return Latency
	}
	return Batch
}

// at returns the i-th waiting job (0 = next to dispatch).
//
//simlint:hotpath
func (q *jobQueue) at(i int) *job {
	lat := q.seg[Latency].live()
	if i < len(lat) {
		return lat[i]
	}
	return q.seg[Batch].live()[i-len(lat)]
}

// window returns the first n waiting jobs in priority order (all of
// them when fewer wait). The slice aliases the queue or its scratch;
// callers must not hold it across mutations or another window call.
//
//simlint:hotpath
func (q *jobQueue) window(n int) []*job {
	lat, batch := q.seg[Latency].live(), q.seg[Batch].live()
	if n <= len(lat) {
		return lat[:n]
	}
	if len(lat) == 0 {
		return batch[:min(n, len(batch))]
	}
	q.scratch = append(q.scratch[:0], lat...)
	q.scratch = append(q.scratch, batch[:min(n-len(lat), len(batch))]...)
	return q.scratch
}

// insert places j at its priority position.
func (q *jobQueue) insert(j *job) {
	if j.slo == Latency {
		q.latency++
	}
	q.work += j.app.soloEst
	q.cowork += j.app.coEst
	j.state = jsWaiting
	r := &q.seg[q.runOf(j)]
	v := r.live()
	pos := sort.Search(len(v), func(i int) bool {
		return j.arrival < v[i].arrival || (j.arrival == v[i].arrival && j.id < v[i].id)
	})
	r.buf = append(r.buf, j)
	if pos == len(v) {
		return
	}
	at := r.head + pos
	copy(r.buf[at+1:], r.buf[at:])
	r.buf[at] = j
}

// unqueue drops one leaving job from the counters.
func (q *jobQueue) unqueue(j *job) {
	if j.slo == Latency {
		q.latency--
	}
	q.work -= j.app.soloEst
	q.cowork -= j.app.coEst
}

// advance pops the first n waiting jobs (the FCFS/Serial paths, whose
// groups are exactly the queue prefix).
func (q *jobQueue) advance(n int) {
	for _, s := range [2]SLOClass{Latency, Batch} {
		r := &q.seg[s]
		k := min(n, len(r.live()))
		for i := r.head; i < r.head+k; i++ {
			q.unqueue(r.buf[i])
			r.buf[i] = nil
		}
		r.head += k
		r.compact()
		n -= k
	}
}

// removeJobs removes the given jobs (a just-formed group, at most NC
// entries) from the queue, preserving the order of the survivors.
// Every member must lie in the queue prefix group formation scanned
// (the dispatch window); each run's scan stops as soon as all of its
// members are found, so the cost is O(window · NC + survivors in the
// prefix), never O(backlog), and it allocates nothing.
func (q *jobQueue) removeJobs(members []*job) {
	inLat := 0
	for _, m := range members {
		if q.runOf(m) == Latency {
			inLat++
		}
	}
	q.seg[Latency].remove(q, members, inLat)
	q.seg[Batch].remove(q, members, len(members)-inLat)
}

// remove takes want of the members out of the run's prefix.
func (r *jobRun) remove(q *jobQueue, members []*job, want int) {
	if want == 0 {
		return
	}
	found := 0
	// kept collects prefix survivors; bounded by the dispatch window,
	// so the stack buffer almost always suffices.
	var keptBuf [MaxWindow]*job
	kept := keptBuf[:0]
	i := r.head
	for ; i < len(r.buf) && found < want; i++ {
		if containsJob(members, r.buf[i]) {
			found++
			q.unqueue(r.buf[i])
		} else {
			kept = append(kept, r.buf[i])
		}
	}
	newHead := i - len(kept)
	copy(r.buf[newHead:i], kept)
	// Nil out the freed slots so completed jobs do not pin the arrays
	// they reference for the queue's lifetime.
	for k := r.head; k < newHead; k++ {
		r.buf[k] = nil
	}
	r.head = newHead
	r.compact()
}

// compact slides the live suffix back to the front once the dead
// prefix dominates the buffer. Without it the head-indexed buffer only
// ever grows (inserts append at the tail while the head advances), so
// a long run reallocates forever and holds O(total jobs) slots; with
// it the buffer is bounded by twice the live backlog and steady-state
// dispatch stays allocation-free. The copy is amortized O(1) per
// removed job: each compaction moves at most as many entries as were
// consumed since the last one.
func (r *jobRun) compact() {
	if r.head < MaxWindow || r.head*2 < len(r.buf) {
		return
	}
	n := copy(r.buf, r.buf[r.head:])
	for k := n; k < len(r.buf); k++ {
		r.buf[k] = nil
	}
	r.buf = r.buf[:n]
	r.head = 0
}

// clone is an independent copy of the queue's waiting jobs and
// counters, for speculation to form groups from without touching the
// real queue.
func (q *jobQueue) clone() jobQueue {
	c := *q
	c.scratch = nil
	for s := range c.seg {
		c.seg[s] = jobRun{buf: append([]*job(nil), q.seg[s].live()...)}
	}
	return c
}
