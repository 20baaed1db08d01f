package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/sched"
)

// The event loop. One loop type runs every engine at every shard count:
// a discrete-event simulation over four event sources — job arrivals
// (known in advance), control events (closed-loop submissions, timeouts,
// autoscaling, chaos), resolved group completions, and unresolved
// in-flight groups whose completion is bounded from below — that always
// processes the provably-earliest event, so the outcome is independent
// of worker timing. Every source is indexed (completion and bound
// min-heaps, an idle-device heap in placement order, a head-indexed
// priority queue, the control heap), so one event costs O(log n)
// instead of a scan over every flight and device.
//
// A loop owns one device partition. Config.Shards = K > 1 deals the
// roster into K partitions and runs them one after another; the loops
// couple only through the arrival router, so each is a plain
// single-threaded DES over its own devices. Determinism holds by
// construction:
//
//   - routing happens at epoch barriers. Time is cut into fixed
//     ShardEpoch windows; before assigning a window's arrivals every
//     loop runs up to the window's start, so each loop's load is a
//     settled function of the already-routed arrivals. Arrivals are
//     then assigned one at a time to the least-loaded loop (ties to the
//     lowest loop id).
//   - the merge is order-fixed: per-device accounting lands at global
//     device indices, counters sum, eviction records sort by their
//     (cycle, device) total order, job records are emitted in global
//     arrival order, and time-series rows merge row by row on the
//     shared interval grid (mergeSeries).
//
// With K = 1 the single loop owns the whole roster. It gets every
// arrival and client up front, never parks at a barrier, and stops as
// soon as its last job settles; its result is returned as it stands. A
// loop of a K-way split instead runs out every event before its
// barrier — trailing control events included — so its sampler may run
// past the makespan.

// DefaultShardEpoch is the router's synchronization quantum (fleet
// cycles) when Config.ShardEpoch is unset. Small epochs track load
// closely but synchronize often; 64k cycles is a few dispatch rounds
// on realistic workloads.
const DefaultShardEpoch = 1 << 16

// inf is the "no event" time of an empty event source.
const inf = math.MaxUint64

// loop is one event loop over one device partition.
type loop struct {
	f *Fleet
	// devices are the global device indices this loop owns, ascending;
	// order lists the same devices in placement order (fastest first);
	// slot maps a global device index to its local slot (-1 when another
	// loop owns the device). flightOf and the sampler's device columns
	// are indexed by local slot.
	devices []int
	order   []int
	slot    []int
	// single marks the loop that owns the whole roster: it stops as soon
	// as its last job settles instead of running out its event sources.
	single bool

	flightOf   []*inflight
	queue      jobQueue
	resolved   flightHeap
	unresolved flightHeap
	idleDevs   deviceHeap
	disp       *dispatcher
	// col is the observability sampler and ctl the control block; each
	// is nil when its feature is off, so the hot loop pays one pointer
	// check per use.
	col *sampler
	ctl *loopCtl
	now uint64
	seq int
	// arr is the loop's open-loop arrival stream in arrival order; the
	// router appends between epochs. Closed-loop submissions arrive
	// through the control heap instead.
	arr     []*job
	nextArr int
	// remaining counts the loop's unsettled jobs: routed or client-owned
	// submissions not yet completed, rejected or abandoned.
	remaining int
	// res accumulates the loop's share of the accounting, indexed by
	// global device.
	res Result

	// The Cycle and Hybrid engines' state. sem bounds the simulation
	// workers; specWG and speculated track speculative pre-simulation and
	// its dedup signatures; hybrid holds the per-composition
	// calibrations; abandoned holds evicted flights whose simulations are
	// still running (their results are discarded, but Run must not
	// return while their workers live).
	sem        chan struct{}
	specWG     sync.WaitGroup
	speculated map[string]bool
	hybrid     map[string]*hybridCal
	abandoned  []*inflight
}

// Run executes the arrival stream on the fleet and returns the per-job
// and per-device accounting: resolve the jobs, build the loops, route
// the traffic through them, and merge their results.
func (f *Fleet) Run(arrivals []Arrival) (Result, error) {
	closed := f.cfg.Closed.Enabled
	if closed && len(arrivals) > 0 {
		return Result{}, fmt.Errorf("fleet: closed-loop runs generate their own submissions; pass no arrivals")
	}
	if !closed && len(arrivals) == 0 {
		return Result{}, fmt.Errorf("fleet: empty arrival stream")
	}
	var (
		jobs      []*job
		perClient [][]*job
		err       error
	)
	if closed {
		jobs, perClient, err = f.resolveClosed()
	} else {
		jobs, err = f.resolve(arrivals)
	}
	if err != nil {
		return Result{}, err
	}
	loops := f.newLoops()
	defer func() {
		for _, l := range loops {
			l.wait()
		}
	}()
	if err := f.route(loops, jobs, perClient); err != nil {
		return Result{}, err
	}
	return f.merge(loops, jobs)
}

// newResult is the Result header every loop and the merge start from.
func (f *Fleet) newResult() Result {
	res := Result{
		Policy:     f.cfg.Policy,
		Engine:     f.cfg.Engine,
		Roster:     f.cfg.RosterString(),
		Devices:    len(f.devType),
		NC:         f.cfg.NC,
		Shards:     f.cfg.Shards,
		Closed:     f.cfg.Closed.Enabled,
		Admission:  f.cfg.Admission.Enabled,
		Autoscale:  f.cfg.Autoscale.Enabled,
		Chaos:      f.cfg.Chaos.Enabled,
		DeviceBusy: make([]uint64, len(f.devType)),
	}
	for d := range f.devType {
		res.DeviceConfig = append(res.DeviceConfig, f.deviceName(d))
	}
	return res
}

// newLoops partitions the roster into max(1, Shards) loops. Devices are
// dealt round-robin over the placement order, so every partition gets
// an equal slice of each speed tier and the fastest-idle-first dispatch
// rule means the same thing inside a partition as it does globally.
func (f *Fleet) newLoops() []*loop {
	k := max(1, f.cfg.Shards)
	total := len(f.devType)
	// The chaos schedule is resolved once, globally; each loop's ctl
	// keeps only the events for devices it owns, so every schedule event
	// executes exactly once at any shard count.
	var chaos []ChaosEvent
	if f.cfg.Chaos.Enabled {
		chaos = f.resolveChaos()
	}
	loops := make([]*loop, k)
	for i := range loops {
		l := &loop{
			f:          f,
			single:     k == 1,
			slot:       make([]int, total),
			queue:      jobQueue{slo: f.cfg.SLO.Enabled},
			resolved:   flightHeap{live: flightResolved, less: completionLess},
			unresolved: flightHeap{live: flightPending, less: boundLess},
			idleDevs:   deviceHeap{pos: f.orderPos},
			disp:       f.newDispatcher(),
			res:        f.newResult(),
		}
		for p := i; p < total; p += k {
			l.order = append(l.order, f.order[p])
		}
		l.devices = append([]int(nil), l.order...)
		sort.Ints(l.devices)
		for d := range l.slot {
			l.slot[d] = -1
		}
		for s, d := range l.devices {
			l.slot[d] = s
		}
		l.flightOf = make([]*inflight, len(l.devices))
		if f.ctlEnabled() {
			// The loop's round-robin share of the autoscale bounds
			// (splitBound matches the deal above, so per-loop bounds sum to
			// the global ones). Chaos events enter the heap before any
			// client submission, so at equal cycles a failure fires first —
			// a submission never races onto a device the same cycle kills.
			minD, maxD := len(l.order), len(l.order)
			if f.cfg.Autoscale.Enabled {
				minD = splitBound(f.cfg.Autoscale.Min, k, i)
				maxD = splitBound(f.cfg.Autoscale.Max, k, i)
			}
			l.ctl = f.newLoopCtl(l, minD, maxD)
			l.ctl.initChaos(chaos)
		}
		// Seed the idle heap with the initially-active devices (all of
		// them, unless the autoscaler starts the roster at its floor).
		for _, d := range l.devices {
			if l.ctl == nil || l.ctl.active[d] {
				l.idleDevs.push(d)
			}
		}
		if f.cfg.SampleEvery > 0 {
			l.col = newSampler(f.cfg.SampleEvery, len(l.devices), l.ctl != nil, f.cfg.Chaos.Enabled)
			l.col.l = l
		}
		if f.cfg.Engine != Modeled {
			// One worker slot per device for the in-flight groups plus as
			// many again for speculative pre-simulation, capped by the host.
			workers := min(2*len(l.devices), runtime.NumCPU())
			l.sem = make(chan struct{}, max(workers, 2))
			l.speculated = make(map[string]bool)
			if f.cfg.Engine == Hybrid {
				l.hybrid = make(map[string]*hybridCal)
			}
		}
		loops[i] = l
	}
	return loops
}

// completionLess is the resolved-heap order: completion cycle, then
// device.
func completionLess(a, b *inflight) bool {
	return a.complete < b.complete || (a.complete == b.complete && a.device < b.device)
}

// boundLess is the unresolved-heap order: earliest bound, then dispatch
// sequence (first dispatched wins).
func boundLess(a, b *inflight) bool {
	return a.earliest < b.earliest || (a.earliest == b.earliest && a.seq < b.seq)
}

// route feeds the loops their traffic and runs them until every job
// settles. Closed-loop clients are dealt round-robin by client id up
// front — a pure function of the id, so the assignment and every
// per-client draw are host-independent — and the loops then run
// independently (the autoscaler still reconciles on its own epoch grid
// within each loop). A single loop takes every open-loop arrival up
// front; K > 1 loops get theirs from the epoch router.
func (f *Fleet) route(loops []*loop, jobs []*job, perClient [][]*job) error {
	k := len(loops)
	if f.cfg.Closed.Enabled {
		ids := make([][]int, k)
		for c := range perClient {
			ids[c%k] = append(ids[c%k], c)
			loops[c%k].remaining += len(perClient[c])
		}
		for i, l := range loops {
			l.ctl.initClients(perClient, ids[i])
		}
		return runAll(loops, inf)
	}
	if k == 1 {
		loops[0].arr = jobs
		loops[0].remaining = len(jobs)
		return loops[0].runUntil(inf)
	}
	epoch := f.cfg.ShardEpoch
	loads := make([]int, k)
	t := uint64(0)
	for next := 0; next < len(jobs); {
		// Settle every loop at the start of the epoch holding the next
		// unrouted arrival, then route that epoch's arrivals against the
		// settled loads.
		at := jobs[next].arrival
		es := max(at-at%epoch, t)
		if es > t {
			if err := runAll(loops, es); err != nil {
				return err
			}
			t = es
		}
		ee := es + epoch
		for i, l := range loops {
			loads[i] = l.load()
		}
		for ; next < len(jobs) && jobs[next].arrival < ee; next++ {
			best := 0
			for i := 1; i < k; i++ {
				if loads[i] < loads[best] {
					best = i
				}
			}
			loops[best].arr = append(loops[best].arr, jobs[next])
			loops[best].remaining++
			loads[best]++
		}
		if err := runAll(loops, ee); err != nil {
			return err
		}
		t = ee
	}
	return runAll(loops, inf)
}

// runAll advances every loop to limit in loop-id order, so a multi-loop
// failure reports the lowest loop's error.
func runAll(loops []*loop, limit uint64) error {
	for _, l := range loops {
		if err := l.runUntil(limit); err != nil {
			return err
		}
	}
	return nil
}

// load is the loop's routing weight at an epoch barrier: jobs waiting or
// assigned plus jobs in flight — a pure function of its settled state.
func (l *loop) load() int {
	n := l.queue.Len() + (len(l.arr) - l.nextArr)
	for _, fl := range l.flightOf {
		if fl != nil {
			n += len(fl.jobs)
		}
	}
	return n
}

// runUntil advances the loop through every event strictly before limit,
// then parks the clock at the barrier (inf never parks). A single loop
// returns as soon as its last job settles; with limit inf any other
// loop runs out its event sources. Jobs left with no event to move them
// are a stall, reported as an error rather than a hang or a short
// result.
//
//simlint:hotpath
func (l *loop) runUntil(limit uint64) error {
	f := l.f
	for !l.single || l.remaining > 0 {
		// Admit arrivals due by now (priority order when SLO-aware);
		// admission control may reject or degrade a submission first.
		for l.nextArr < len(l.arr) && l.arr[l.nextArr].arrival <= l.now {
			j := l.arr[l.nextArr]
			l.nextArr++
			if l.ctl != nil && !l.ctl.admitOpen(j, l.now) {
				continue
			}
			l.queue.insert(j)
		}
		if err := l.dispatch(); err != nil {
			return err
		}
		// Preemption: when the head of the queue is a latency job that
		// would miss its deadline waiting for the predicted next natural
		// completion, clear one running all-batch group and loop back so
		// the dispatch pass places the trigger on the freed device.
		if f.cfg.SLO.Preempt && l.queue.Len() > 0 && l.queue.at(0).slo == Latency {
			if victim := l.preemptVictim(l.queue.at(0)); victim != nil {
				l.release(victim, l.queue.at(0).id)
				l.idleDevs.push(victim.device)
				continue
			}
		}
		// Pick the provably-earliest next event. Ties go to arrivals
		// first (a job landing the instant a device frees still queues
		// before the dispatch decision), then to control events
		// (submissions, timeouts, scaling, chaos), then to the lowest
		// device id among resolved completions (the heap key).
		tArr, tCtl := uint64(inf), uint64(inf)
		if l.nextArr < len(l.arr) {
			tArr = l.arr[l.nextArr].arrival
		}
		if l.ctl != nil {
			tCtl = l.ctl.next()
		}
		cBest, uBest := l.resolved.peek(), l.unresolved.peek()
		cTime, uTime := uint64(inf), uint64(inf)
		if cBest != nil {
			cTime = cBest.complete
		}
		if uBest != nil {
			uTime = uBest.earliest
		}
		if min(tArr, tCtl, cTime, uTime) >= limit {
			if limit != inf {
				// Park at the barrier. Between the last processed event and
				// the barrier the loop's state is constant, so sampler edges
				// in that span emit identically on the next advance.
				l.now = max(l.now, limit)
			} else if l.remaining > 0 {
				return l.stall()
			}
			return nil
		}
		switch {
		case tArr <= tCtl && tArr <= cTime && tArr <= uTime:
			l.advance(tArr)
		case tCtl <= cTime && tCtl <= uTime:
			l.advance(tCtl)
			l.ctl.step(l.now)
		case cTime <= uTime:
			l.advance(cTime)
			l.retire(cBest)
		default:
			if err := l.await(uBest); err != nil {
				return err
			}
		}
	}
	return nil
}

// advance moves the clock to t. The sampler first emits every interval
// boundary the advance crosses with the pre-advance state; events at t
// itself fold into the row at (or after) t, emitted on a later advance.
func (l *loop) advance(t uint64) {
	if l.col != nil {
		l.col.advanceTo(t)
	}
	l.now = t
}

// stall reports jobs that no future event can move: every device the
// loop owns failed or draining with no restore scheduled. Split out of
// runUntil to keep the hot path free of formatting state.
func (l *loop) stall() error {
	if c := l.ctl; c != nil && c.failedCount+c.drainingCount > 0 {
		return fmt.Errorf("fleet: no dispatchable work with %d jobs outstanding (%d devices failed, %d draining, and no restore scheduled)",
			l.remaining, c.failedCount, c.drainingCount)
	}
	return fmt.Errorf("fleet: no dispatchable work with %d jobs outstanding", l.remaining)
}

// dispatch hands waiting work to idle devices, fastest device first:
// group formation is placement-aware, scoring candidates with the
// chosen device type's interference matrix. A modeled group is born
// resolved; the Cycle and Hybrid engines go through start.
//
//simlint:hotpath
func (l *loop) dispatch() error {
	f := l.f
	for l.queue.Len() > 0 {
		d := l.idleDevs.pop()
		if d < 0 {
			break
		}
		t := f.devType[d]
		fl := l.disp.newFlight()
		members, usedILP := l.disp.formGroup(fl.jobs[:0], &l.queue, t, l.now)
		for _, m := range members {
			m.state = jsRunning
		}
		fl.device = d
		fl.typ = t
		fl.dispatch = l.now
		fl.seq = l.seq
		fl.jobs = members
		fl.ilp = usedILP
		l.seq++
		var err error
		if f.cfg.Engine == Modeled {
			err = l.disp.commitModeled(fl, l.now, 1, &l.resolved)
		} else {
			err = l.start(fl)
		}
		if err != nil {
			return err
		}
		l.flightOf[l.slot[d]] = fl
	}
	// A drained queue means no pending speculation guess can be
	// dispatched next, so the dedup signatures are dead weight: reset the
	// map rather than let a 100k-job run accumulate every historical
	// group signature. A signature that recurs later costs one
	// re-submitted RunGroup, which the scheduler's memo dedups.
	if l.queue.Len() == 0 && len(l.speculated) > 0 {
		clear(l.speculated)
	}
	return nil
}

// start launches a dispatched flight under the Cycle or Hybrid engine.
// A Hybrid composition past its warm-up is served by the calibrated
// model, born resolved. Otherwise the group simulates on a worker and
// waits in the unresolved heap under a sound lower bound on its
// completion.
func (l *loop) start(fl *inflight) error {
	f := l.f
	if f.cfg.Engine == Hybrid {
		key := compositionKey(fl.jobs, fl.typ)
		cal := l.hybrid[key]
		if cal == nil {
			cal = &hybridCal{}
			l.hybrid[key] = cal
		}
		if cal.started >= f.cfg.HybridWarm {
			return l.disp.commitModeled(fl, l.now, cal.calibration(), &l.resolved)
		}
		cal.started++
		fl.calKey = key
	}
	fl.done = make(chan struct{})
	fl.earliest = l.now + f.lowerBoundCycles(fl.jobs, fl.typ)
	l.unresolved.push(fl)
	go func() {
		l.sem <- struct{}{}
		defer func() { <-l.sem }()
		fl.rep, fl.err = f.types[fl.typ].Scheduler().RunGroup(group(fl.jobs, fl.typ), f.cfg.Policy)
		close(fl.done)
	}()
	return nil
}

// await blocks until the unresolved flight with the earliest possible
// completion reports, then moves it to the resolved heap. Every other
// in-flight simulation keeps running meanwhile — and so do speculative
// runs of the groups the still-busy devices will most likely dispatch
// when they free up. Group formation is a pure function of queue
// content and device type, so in drained-arrival phases the prediction
// is exact and the real dispatch later finds its simulation already
// done (or in flight — the scheduler dedups identical executions).
func (l *loop) await(fl *inflight) error {
	f := l.f
	if runtime.NumCPU() > 1 || f.cfg.forceSpec {
		l.speculate()
	}
	<-fl.done
	if fl.err != nil {
		return fl.err
	}
	fl.complete = fl.dispatch + f.flightCycles(fl)
	if fl.complete < fl.earliest {
		// The bound was not sound after all — fail loudly rather than
		// silently reorder events.
		return fmt.Errorf("fleet: completion %d before lower bound %d for group on device %d",
			fl.complete, fl.earliest, fl.device)
	}
	if fl.calKey != "" {
		if err := l.calibrate(fl); err != nil {
			return err
		}
	}
	fl.state = flightResolved
	l.resolved.push(fl)
	return nil
}

// retire pops fl, the resolved heap's root, accounts it into the loop's
// result and its jobs, and frees its device. All cycle accounting goes
// through the checkpoint-scaled effective ends, which coincide with the
// simulated ones for groups of fresh jobs.
//
//simlint:hotpath
func (l *loop) retire(fl *inflight) {
	f := l.f
	res := &l.res
	l.resolved.pop()
	fl.state = flightRetired
	groupEnd := uint64(0)
	for i, j := range fl.jobs {
		j.dispatch = fl.dispatch
		j.device = fl.device
		j.state = jsDone
		end := f.memberEnd(fl, i)
		groupEnd = max(groupEnd, end)
		j.complete = fl.dispatch + end
	}
	res.DeviceBusy[fl.device] += groupEnd
	res.Makespan = max(res.Makespan, fl.dispatch+groupEnd)
	for _, st := range fl.rep.Stats {
		res.ThreadInstructions += st.ThreadInstructions
	}
	res.Groups++
	if fl.ilp {
		res.ILPGroups++
	} else {
		res.GreedyGroups++
	}
	if fl.modeled {
		res.ModeledGroups++
	} else {
		res.CycleGroups++
	}
	res.SMMoves += fl.rep.SMMoves
	if l.col != nil {
		l.col.noteRetire(fl)
		l.col.addBusy(l.slot[fl.device], fl.dispatch, fl.complete)
	}
	l.remaining -= len(fl.jobs)
	l.flightOf[l.slot[fl.device]] = nil
	if l.ctl == nil || l.ctl.deviceUp(fl.device) {
		// A draining device's last flight retires it out of placement
		// order; a restore pushes it back.
		l.idleDevs.push(fl.device)
	}
	if l.ctl != nil {
		// Before recycle: closed-loop clients read the member references
		// to schedule their next submissions.
		l.ctl.onRetire(fl, l.now)
	}
	if fl.modeled {
		// A retired modeled flight has left every heap (it was only ever
		// in resolved, and pop removed it), so its record and buffers can
		// serve the next dispatch.
		l.disp.recycle(fl)
	}
}

// release clears an evicted flight off its device, for preemption and
// chaos alike: the members re-enter the queue with checkpointed
// progress, the aborted attempt's device time is busy time, an evicted
// Hybrid warm-up refunds its calibration slot (it never resolves, so it
// could never feed the calibration), and a simulation still running on
// its worker is kept for wait. The caller decides whether the device
// rejoins the idle heap.
func (l *loop) release(fl *inflight, triggerID int) {
	l.f.evict(fl, triggerID, l.now, &l.res)
	fl.state = flightEvicted
	l.flightOf[l.slot[fl.device]] = nil
	if l.col != nil {
		l.col.addBusy(l.slot[fl.device], fl.dispatch, l.now)
	}
	if fl.calKey != "" {
		l.hybrid[fl.calKey].started--
		fl.calKey = ""
	}
	if !fl.modeled {
		l.abandoned = append(l.abandoned, fl)
	}
	for _, j := range fl.jobs {
		l.queue.insert(j)
	}
}

// wait blocks until every simulation the loop started has finished —
// in flight, evicted or speculative — so no worker outlives Run.
func (l *loop) wait() {
	for _, fl := range l.flightOf {
		if fl != nil && fl.state == flightPending {
			<-fl.done
		}
	}
	for _, fl := range l.abandoned {
		<-fl.done
	}
	l.specWG.Wait()
}

// calibrate folds a resolved Hybrid warm-up flight into its
// composition's calibration: the simulated per-member ends against the
// raw (uncalibrated) model's predictions for the same group.
func (l *loop) calibrate(fl *inflight) error {
	var model sched.GroupReport
	if err := l.disp.modelReport(&model, fl.jobs, fl.typ, 1); err != nil {
		return err
	}
	actual := make([]uint64, len(fl.jobs))
	predicted := make([]uint64, len(fl.jobs))
	for i := range fl.jobs {
		// Raw simulated ends (group makespan fallback), deliberately not
		// checkpoint-scaled: the model predicts full runs and the
		// checkpoint scaling is applied downstream of both engines.
		e := fl.rep.Cycles
		if i < len(fl.rep.Stats) && fl.rep.Stats[i].EndCycle > 0 {
			e = fl.rep.Stats[i].EndCycle
		}
		actual[i] = e
		predicted[i] = model.Stats[i].EndCycle
	}
	l.hybrid[fl.calKey].observe(actual, predicted)
	return nil
}

// speculate warms the schedulers' group memos with the groups each
// still-busy device would most likely dispatch next from the current
// queue. Results and errors are deliberately dropped: this only moves
// simulation work off the critical path, it never changes what the real
// dispatch computes (the memo is keyed by group content and simulations
// are pure). A wrong guess — arrivals landing in the window before the
// device actually frees, or busy devices freeing in a different order —
// costs one wasted simulation, never correctness.
func (l *loop) speculate() {
	f := l.f
	if l.queue.Len() == 0 {
		return
	}
	// formGroup filters the queue in place, so work on a copy (the copy
	// owns its runs' buffers, so compaction cannot touch the real queue).
	// Busy devices are predicted in placement order — the same order real
	// dispatch would offer them work if they all freed at once. With
	// aging on the prediction also guesses the dispatch time (now); a
	// stale guess costs one wasted simulation, never correctness.
	spec := l.queue.clone()
	for _, d := range l.order {
		if l.flightOf[l.slot[d]] == nil || spec.Len() == 0 {
			continue
		}
		t := f.devType[d]
		members, _ := l.disp.formGroup(nil, &spec, t, l.now)
		sig := fmt.Sprintf("t%d:", t)
		for _, m := range members {
			sig += m.name() + "|"
		}
		if l.speculated[sig] {
			continue
		}
		l.speculated[sig] = true
		g := group(members, t)
		l.specWG.Add(1)
		go func() {
			defer l.specWG.Done()
			l.sem <- struct{}{}
			defer func() { <-l.sem }()
			_, _ = f.types[t].Scheduler().RunGroup(g, f.cfg.Policy)
		}()
	}
}

// preemptVictim decides whether evicting a running group saves the
// trigger latency job, and which group to clear. It returns nil when no
// eviction is justified: the trigger can still meet its deadline by
// waiting (the predicted next device free time plus the fastest solo
// run on the roster makes it), or no running group is evictable (every
// group shields a latency member), or the deadline is already
// unreachable even on a device freed right now (eviction would burn
// batch progress without saving anything). Only the loop's own devices
// can rescue the trigger: the router decided its partition.
//
//simlint:hotpath
func (l *loop) preemptVictim(trigger *job) *inflight {
	f, now := l.f, l.now
	// Waiting means the dispatch loop hands the queue head to the FIRST
	// device that frees — there is no holding back for a faster one —
	// so the no-eviction outcome is the co-run on that flight's own
	// device type. Ties between simultaneously freeing devices resolve
	// by placement order, exactly as the real dispatch pass scans them.
	// A draining device's flight frees nothing dispatchable, so down
	// devices are out on both sides of the decision: their completions
	// never serve the trigger, and evicting them frees a device the
	// dispatch pass would skip anyway.
	var first *inflight
	firstFree := uint64(inf)
	for _, fl := range l.flightOf {
		if fl == nil || (l.ctl != nil && !l.ctl.deviceUp(fl.device)) {
			continue
		}
		free := f.predictedFree(fl)
		if first == nil || free < firstFree ||
			(free == firstFree && f.orderPos[fl.device] < f.orderPos[first.device]) {
			first, firstFree = fl, free
		}
	}
	if first == nil {
		return nil
	}
	run, ok := f.coRunCycles(trigger, first.typ)
	if !ok {
		return nil // no solo profile to estimate with; never evict blindly
	}
	deadline := trigger.deadlineAbs()
	if firstFree+run <= deadline {
		return nil
	}
	// Candidate victims: running groups with no latency member, whose
	// freed device could still let the trigger meet the deadline. The
	// two sides of the decision are deliberately asymmetric: the
	// would-miss test above uses the pessimistic co-run estimate (missing
	// a needed rescue forfeits the deadline for good), while this
	// can-save test uses the solo optimum (a rescue that might work is
	// worth one batch group's progress; if it fails anyway, the waste is
	// bounded and reported).
	var victim *inflight
	for _, fl := range l.flightOf {
		if fl == nil || (l.ctl != nil && !l.ctl.deviceUp(fl.device)) {
			continue
		}
		evictable := true
		for _, j := range fl.jobs {
			if j.slo == Latency {
				evictable = false
				break
			}
		}
		if !evictable {
			continue
		}
		// A device already predicted to free at the current cycle gives
		// eviction no head start over waiting — clearing it would throw
		// away a (possibly finished) run for zero latency gain.
		if f.predictedFree(fl) <= now {
			continue
		}
		if solo, ok := f.soloCycles(trigger, fl.typ); !ok || now+solo > deadline {
			continue
		}
		if victim == nil || fl.dispatch > victim.dispatch ||
			(fl.dispatch == victim.dispatch && fl.device < victim.device) {
			victim = fl
		}
	}
	return victim
}

// merge folds the drained loops into one Result. A single loop's result
// is returned as it stands; K > 1 partitions sum their counters at
// global device indices and order their eviction records by (cycle,
// device) — within a loop records are in event order, and one device
// evicts at most one flight per cycle, so that is a total order.
func (f *Fleet) merge(loops []*loop, jobs []*job) (Result, error) {
	res := loops[0].res
	if len(loops) > 1 {
		res = f.newResult()
		for _, l := range loops {
			r := &l.res
			for d, busy := range r.DeviceBusy {
				res.DeviceBusy[d] += busy
			}
			res.Makespan = max(res.Makespan, r.Makespan)
			res.ThreadInstructions += r.ThreadInstructions
			res.Groups += r.Groups
			res.ILPGroups += r.ILPGroups
			res.GreedyGroups += r.GreedyGroups
			res.ModeledGroups += r.ModeledGroups
			res.CycleGroups += r.CycleGroups
			res.SMMoves += r.SMMoves
			res.Submitted += r.Submitted
			res.Rejected += r.Rejected
			res.Degraded += r.Degraded
			res.Abandoned += r.Abandoned
			res.Retried += r.Retried
			res.Provisions += r.Provisions
			res.Decommissions += r.Decommissions
			res.Failures += r.Failures
			res.Drains += r.Drains
			res.Restores += r.Restores
			res.ChaosEvictions += r.ChaosEvictions
			res.Evictions = append(res.Evictions, r.Evictions...)
		}
		sort.SliceStable(res.Evictions, func(i, j int) bool {
			a, b := res.Evictions[i], res.Evictions[j]
			if a.Cycle != b.Cycle {
				return a.Cycle < b.Cycle
			}
			return a.Device < b.Device
		})
	}
	if f.cfg.SampleEvery > 0 {
		series, err := mergeSeries(f, loops, res.Makespan)
		if err != nil {
			return Result{}, err
		}
		res.Series = series
	}
	samples, delta := 0, 0.0
	for _, l := range loops {
		for _, cal := range l.hybrid {
			samples += cal.n
			delta += cal.delta
		}
	}
	if samples > 0 {
		res.ModelDelta = delta / float64(samples)
	}
	res.Jobs = make([]JobRecord, len(jobs))
	for i, j := range jobs {
		f.jobRecord(&res.Jobs[i], j)
	}
	return res, nil
}

// splitBound is loop i's share of a fleet-wide device bound n dealt
// over k loops — the same round-robin split newLoops deals the roster
// with, so per-loop autoscale bounds sum to the global ones.
func splitBound(n, k, i int) int {
	b := n / k
	if i < n%k {
		b++
	}
	return b
}
