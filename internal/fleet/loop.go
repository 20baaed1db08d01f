package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/sched"
)

// The event loop: a discrete-event simulation over four event sources
// — job arrivals (known in advance), control events (closed-loop
// submissions, timeouts, autoscaling, chaos), resolved group
// completions, and unresolved in-flight groups whose completion is
// bounded from below — that always processes the provably-earliest
// event, so the outcome is independent of worker timing. Every source
// is indexed (completion and bound min-heaps, an idle-device heap in
// placement order, a head-indexed priority queue, and the control
// block's heap and two FIFOs), so one event costs O(log n) instead of a
// scan over every flight and device. One loop runs every engine over
// the whole roster, and it stops as soon as its last job settles, so
// events after it (trailing scale ticks, timers, chaos) never run.

// inf is the "no event" time of an empty event source.
const inf = math.MaxUint64

// loop is one run's event-loop state.
type loop struct {
	f *Fleet

	// flightOf is the flight running on each device (nil when idle).
	flightOf   []*inflight
	queue      jobQueue
	resolved   flightHeap
	unresolved flightHeap
	idleDevs   deviceHeap
	disp       *dispatcher

	// flightEpoch counts the writes scanFirstToFree reads: a flight
	// placed on or cleared off a device, a flight resolving, and a device
	// failing, draining or restoring. first and firstFree cache the
	// scan's answer for firstEpoch, the epoch it ran at. The zero values
	// cache a fresh loop's answer: no flight yet.
	flightEpoch uint64
	firstEpoch  uint64
	first       *inflight
	firstFree   uint64

	// col is the observability sampler and ctl the control block; each
	// is nil when its feature is off, so the hot loop pays one pointer
	// check per use.
	col *sampler
	ctl *loopCtl
	now uint64
	seq int
	// arr is the open-loop arrival stream in arrival order, walked by
	// index. Closed-loop submissions arrive as control events instead.
	arr     []JobRecord
	nextArr int
	// remaining counts the unsettled jobs: submissions not yet
	// completed, rejected or abandoned.
	remaining int
	// res accumulates the run's accounting.
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
// and per-device accounting: resolve the job records, build the loop,
// run it until every job settles, wait out the simulations it started,
// and build the result on the same records.
func (f *Fleet) Run(arrivals []Arrival) (Result, error) {
	closed := f.cfg.Closed.Enabled
	if closed && len(arrivals) > 0 {
		return Result{}, fmt.Errorf("fleet: closed-loop runs generate their own submissions; pass no arrivals")
	}
	if !closed && len(arrivals) == 0 {
		return Result{}, fmt.Errorf("fleet: empty arrival stream")
	}
	var (
		jobs      []JobRecord
		perClient [][]JobRecord
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
	l := f.newLoop(jobs, perClient)
	err = l.run()
	// No worker outlives Run, and none is left running when result
	// finalizes the records.
	l.wait()
	if err != nil {
		return Result{}, err
	}
	return l.result(jobs), nil
}

// newLoop builds the loop over the whole roster. Open-loop jobs form
// its arrival stream; closed-loop runs hand perClient's request
// sequences to the control block instead.
func (f *Fleet) newLoop(jobs []JobRecord, perClient [][]JobRecord) *loop {
	l := &loop{
		f:          f,
		flightOf:   make([]*inflight, len(f.devType)),
		queue:      jobQueue{slo: f.cfg.SLO.Enabled},
		resolved:   flightHeap{live: flightResolved},
		unresolved: flightHeap{live: flightPending},
		idleDevs:   deviceHeap{pos: f.orderPos},
		disp:       f.newDispatcher(),
		res:        f.newResult(),
		remaining:  len(jobs),
	}
	if !f.cfg.Closed.Enabled {
		l.arr = jobs
	}
	if f.ctlEnabled() {
		l.ctl = f.newLoopCtl(l)
		l.ctl.initChaos()
		l.ctl.initClients(perClient)
	}
	// Seed the idle heap with the initially-active devices (all of them,
	// unless the autoscaler starts the roster at its floor).
	for d := range f.devType {
		if l.ctl == nil || l.ctl.active[d] {
			l.idleDevs.push(d)
		}
	}
	if f.cfg.SampleEvery > 0 {
		l.col = newSampler(l)
	}
	if f.cfg.Engine != Modeled {
		// One worker slot per device for the in-flight groups plus as
		// many again for speculative pre-simulation, capped by the host.
		workers := min(2*len(f.devType), runtime.NumCPU())
		l.sem = make(chan struct{}, max(workers, 2))
		l.speculated = make(map[string]bool)
		if f.cfg.Engine == Hybrid {
			l.hybrid = make(map[string]*hybridCal)
		}
	}
	return l
}

// newResult is the Result header the loop starts from.
func (f *Fleet) newResult() Result {
	res := Result{
		Policy:     f.cfg.Policy,
		Engine:     f.cfg.Engine,
		Roster:     f.cfg.RosterString(),
		Devices:    len(f.devType),
		NC:         f.cfg.NC,
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

// run advances the loop through every event until its last job
// settles. Jobs left with no event to move them are a stall, reported
// as an error rather than a hang or a short result.
//
//simlint:hotpath
func (l *loop) run() error {
	f := l.f
	for l.remaining > 0 {
		// Admit arrivals due by now (priority order when SLO-aware);
		// admission control may reject or degrade a submission first.
		for l.nextArr < len(l.arr) && l.arr[l.nextArr].Arrival <= l.now {
			j := &l.arr[l.nextArr]
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
		if f.cfg.SLO.Preempt && l.queue.Len() > 0 && l.queue.at(0).SLO == Latency {
			if victim := l.preemptVictim(l.queue.at(0)); victim != nil {
				l.release(victim, l.queue.at(0).ID)
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
			tArr = l.arr[l.nextArr].Arrival
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
		switch {
		case min(tArr, tCtl, cTime, uTime) == inf:
			return l.stall()
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

// stall reports jobs that no future event can move: every device
// failed or draining with no restore scheduled. Split out of run to
// keep the hot path free of formatting state.
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
		// A modeled flight resolved in commitModeled above; this bump
		// covers that write too, since the flight was on no device yet.
		l.flightOf[d] = fl
		l.flightEpoch++
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
// completion. The group is built before the worker starts, so the
// worker reads no job record.
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
	l.unresolved.push(fl.earliest, fl.seq, fl)
	g := group(fl.jobs, fl.typ)
	go func() {
		l.sem <- struct{}{}
		defer func() { <-l.sem }()
		fl.rep, fl.err = f.types[fl.typ].Scheduler().RunGroup(g, f.cfg.Policy)
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
	l.flightEpoch++
	l.resolved.push(fl.complete, fl.device, fl)
	return nil
}

// retire pops fl, the resolved heap's root, accounts it into the result
// and its jobs, and frees its device. All cycle accounting goes
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
		j.Dispatch = fl.dispatch
		j.Device = fl.device
		j.state = jsDone
		end := f.memberEnd(fl, i)
		groupEnd = max(groupEnd, end)
		j.Complete = fl.dispatch + end
	}
	res.DeviceBusy[fl.device] += groupEnd
	res.Makespan = max(res.Makespan, fl.dispatch+groupEnd)
	for i := range fl.rep.Stats {
		res.ThreadInstructions += fl.rep.Stats[i].ThreadInstructions
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
		l.col.addBusy(fl.device, fl.dispatch, fl.complete)
	}
	l.remaining -= len(fl.jobs)
	l.flightOf[fl.device] = nil
	l.flightEpoch++
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
	l.flightOf[fl.device] = nil
	l.flightEpoch++
	if l.col != nil {
		l.col.addBusy(fl.device, fl.dispatch, l.now)
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
	for _, d := range f.order {
		if l.flightOf[d] == nil || spec.Len() == 0 {
			continue
		}
		t := f.devType[d]
		members, _ := l.disp.formGroup(nil, &spec, t, l.now)
		sig := fmt.Sprintf("t%d:", t)
		for _, m := range members {
			sig += m.Name + "|"
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
// batch progress without saving anything).
//
//simlint:hotpath
func (l *loop) preemptVictim(trigger *JobRecord) *inflight {
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
	first, firstFree := l.firstToFree()
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
			if j.SLO == Latency {
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

// firstToFree returns the flight on an up device predicted to free
// first, placement order breaking ties, and its predicted free cycle
// (nil when no up device runs one). The answer depends on nothing but
// the writes flightEpoch counts, so scanFirstToFree runs once per
// epoch.
//
//simlint:hotpath
func (l *loop) firstToFree() (*inflight, uint64) {
	if l.firstEpoch != l.flightEpoch {
		l.first, l.firstFree = l.scanFirstToFree()
		l.firstEpoch = l.flightEpoch
	}
	return l.first, l.firstFree
}

// scanFirstToFree is firstToFree's scan over the running flights.
//
//simlint:hotpath
func (l *loop) scanFirstToFree() (*inflight, uint64) {
	f := l.f
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
	return first, firstFree
}

// result builds the drained loop's Result: the eviction records sorted
// stably by (cycle, device) — a chaos failure and a preemption can evict
// on different devices in one cycle, and event order need not be device
// order — the finished time series, the Hybrid engine's fidelity delta,
// and the per-job records in arrival order, finalized in place.
func (l *loop) result(jobs []JobRecord) Result {
	f, res := l.f, l.res
	sort.SliceStable(res.Evictions, func(i, j int) bool {
		a, b := res.Evictions[i], res.Evictions[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Device < b.Device
	})
	if l.col != nil {
		res.Series = l.col.finish(res.Makespan)
	}
	samples, delta := 0, 0.0
	for _, cal := range l.hybrid {
		samples += cal.n
		delta += cal.delta
	}
	if samples > 0 {
		res.ModelDelta = delta / float64(samples)
	}
	for i := range jobs {
		f.finalize(&jobs[i])
	}
	res.Jobs = jobs
	return res
}
