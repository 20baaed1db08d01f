package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// The closed-loop control surfaces. Three features share one mechanism:
//
//   - Closed traffic: K client pools each keep exactly one request in
//     the system — submit, wait for completion (or give up), think,
//     submit the next — so load is a feedback function of fleet speed
//     rather than an open schedule. Requests can time out while queued
//     (abandon) and retry with exponential backoff, bounded.
//   - Admission control: a submission whose predicted wait exceeds a
//     bound is rejected outright or degraded to the batch class, so an
//     overloaded fleet sheds or softens load instead of growing an
//     unbounded backlog.
//   - Elastic rosters: devices are provisioned (after a delay) and
//     decommissioned on queue-pressure watermarks, reconciled on a
//     fixed epoch grid.
//
// All of it is driven by the event loop's control block (loopCtl).
// Its events fire in one deterministic order, (cycle, push sequence),
// from three sources: abandon timers, armed one fixed Timeout after
// their submission and so pushed in firing order, wait in a FIFO; the
// chaos schedule (chaos.go), queued in cycle order and ahead of every
// same-cycle event, waits in a second FIFO; and submissions, retries,
// scale ticks and provisions, which can land at any cycle, share a
// keyed heap that holds at most one submission per client. Each step
// pops the least of the three heads. Every random draw comes from
// per-client internal/rng streams derived only from the configured
// seed and the client id, so reruns are byte-identical.
// With every feature disabled the loop carries a nil *loopCtl and the
// hot path pays one pointer check per event — the steady-state
// zero-allocation dispatch contract is untouched.

// ClosedConfig parameterizes the closed-loop arrival source
// (Config.Closed). Enabled runs replace the open arrival stream: Run
// must be called with no arrivals and generates each client's request
// sequence itself.
type ClosedConfig struct {
	// Enabled switches the fleet to closed-loop traffic.
	Enabled bool
	// Clients is the number of client pools, each with exactly one
	// request outstanding at a time.
	Clients int
	// Requests is how many requests each client issues over the run (0
	// selects DefaultClosedRequests).
	Requests int
	// Think is the mean think time in cycles between a request's
	// completion (or terminal failure) and the client's next submission,
	// drawn exponentially per client. 0 resubmits immediately.
	Think float64
	// Timeout is the per-request patience in cycles: a submission still
	// waiting in the queue Timeout cycles after it was submitted is
	// abandoned (running requests are never abandoned). 0 disables
	// abandonment, and a patience reaching past the largest cycle
	// count never expires.
	Timeout uint64
	// Retries bounds how many times a rejected or abandoned request is
	// resubmitted; Backoff is the base delay before the first retry,
	// doubling per attempt (0 selects DefaultBackoff when Retries > 0).
	Retries int
	Backoff uint64
	// LatencyFrac tags this share of requests with the latency SLO class
	// and Deadline (0 selects DefaultDeadline) — drawn from a per-client
	// stream independent of names and think times.
	LatencyFrac float64
	Deadline    uint64
	// Seed drives every client's draws; same seed, same traffic.
	Seed uint64
	// Universe is the benchmark names requests draw from (uniformly).
	Universe []string
}

// AdmissionConfig parameterizes admission control (Config.Admission):
// a submission is admitted only if the predicted queueing wait is at
// most MaxWait.
type AdmissionConfig struct {
	Enabled bool
	// MaxWait is the admission bound in cycles on the predicted wait.
	MaxWait uint64
	// Degrade admits over-bound latency submissions as batch (dropping
	// class and deadline) instead of rejecting; batch submissions are
	// always admitted in this mode.
	Degrade bool
	// Modeled switches the predictor's backlog estimate from the plain
	// solo-work sum to the interference-aware one: each queued job's
	// solo duration scaled by its class's expected co-run slowdown from
	// the Modeled engine's MemberSlowdown tables (appInfo.coEst), so a
	// backlog of mutually hostile classes predicts longer waits than an
	// equal amount of friendly work.
	Modeled bool
}

// AutoscaleConfig parameterizes the elastic roster (Config.Autoscale).
// Pressure is queue depth per active device, evaluated every Epoch
// cycles on the fixed epoch grid.
type AutoscaleConfig struct {
	Enabled bool
	// Min and Max bound the active device count (0 selects 1 and the
	// full roster).
	Min, Max int
	// High and Low are the scale-up and scale-down pressure watermarks
	// (0 selects DefaultScaleHigh and DefaultScaleLow).
	High, Low float64
	// Delay is the provisioning latency in cycles between the scale-up
	// decision and the device accepting work (0 selects
	// DefaultProvisionDelay). Decommission is immediate — only idle
	// devices are released.
	Delay uint64
	// Epoch is the reconciliation quantum in fleet cycles (0 selects
	// DefaultScaleEpoch).
	Epoch uint64
}

// Closed-loop and autoscale defaults.
const (
	// DefaultClosedRequests is each client's request count when the
	// config leaves it zero.
	DefaultClosedRequests = 8
	// DefaultBackoff is the base retry backoff in cycles.
	DefaultBackoff = 25_000
	// DefaultScaleHigh and DefaultScaleLow are the autoscaler's
	// queue-pressure watermarks (waiting jobs per active device).
	DefaultScaleHigh = 4.0
	DefaultScaleLow  = 0.5
	// DefaultProvisionDelay is the scale-up provisioning latency.
	DefaultProvisionDelay = 25_000
	// DefaultScaleEpoch is the autoscaler's reconciliation quantum in
	// fleet cycles: a few dispatch rounds on realistic workloads.
	DefaultScaleEpoch = 1 << 16
)

// Job lifecycle states (JobRecord.state), the conservation test's
// ground truth: every submitted attempt ends done, abandoned or
// rejected. The zero value is jsPending so arena-allocated jobs start
// unsubmitted.
const (
	jsPending uint8 = iota
	jsWaiting
	jsRunning
	jsDone
	jsAbandoned
	jsRejected
)

// ctlKind enumerates the control-event kinds the loop processes.
type ctlKind uint8

// ParseAdmission parses the CLI/sweep admission spelling: "off" (or
// empty) disables it, "reject:MAXWAIT" rejects over-bound submissions,
// "degrade:MAXWAIT" admits over-bound latency submissions as batch.
func ParseAdmission(s string) (AdmissionConfig, error) {
	if s == "" || strings.EqualFold(s, "off") {
		return AdmissionConfig{}, nil
	}
	mode, bound, ok := strings.Cut(s, ":")
	if !ok {
		return AdmissionConfig{}, fmt.Errorf("fleet: admission %q is not off, reject:MAXWAIT or degrade:MAXWAIT", s)
	}
	cfg := AdmissionConfig{Enabled: true}
	// A "-modeled" suffix selects the interference-aware predictor.
	modeName, modeled := strings.CutSuffix(strings.ToLower(mode), "-modeled")
	cfg.Modeled = modeled
	switch modeName {
	case "reject":
	case "degrade":
		cfg.Degrade = true
	default:
		return AdmissionConfig{}, fmt.Errorf("fleet: admission mode %q is not reject[-modeled] or degrade[-modeled]", mode)
	}
	w, err := strconv.ParseUint(bound, 10, 64)
	if err != nil || w == 0 {
		return AdmissionConfig{}, fmt.Errorf("fleet: admission bound %q is not a positive cycle count", bound)
	}
	cfg.MaxWait = w
	return cfg, nil
}

// ParseAutoscale parses the CLI/sweep autoscale spelling: "off" (or
// empty) disables it, "MIN:MAX" bounds the active device count.
// Watermarks, provisioning delay and epoch keep their defaults.
func ParseAutoscale(s string) (AutoscaleConfig, error) {
	if s == "" || strings.EqualFold(s, "off") {
		return AutoscaleConfig{}, nil
	}
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return AutoscaleConfig{}, fmt.Errorf("fleet: autoscale %q is not off or MIN:MAX", s)
	}
	min, err := strconv.Atoi(lo)
	if err != nil || min < 1 {
		return AutoscaleConfig{}, fmt.Errorf("fleet: autoscale floor %q is not a positive device count", lo)
	}
	max, err := strconv.Atoi(hi)
	if err != nil || max < min {
		return AutoscaleConfig{}, fmt.Errorf("fleet: autoscale ceiling %q is not a device count >= the floor", hi)
	}
	return AutoscaleConfig{Enabled: true, Min: min, Max: max}, nil
}

const (
	// evSubmit is a client's (first) submission of a request.
	evSubmit ctlKind = iota
	// evRetry resubmits a rejected or abandoned request after backoff.
	evRetry
	// evAbandon fires a queued request's timeout (aux = the attempt it
	// guards; head drops stale timers).
	evAbandon
	// evProvision activates a provisioning device (aux = device index).
	evProvision
	// evScale is the autoscaler's periodic pressure check.
	evScale
	// evFail, evDrain and evRestore are the chaos layer's scheduled
	// device actions (aux = device index; see chaos.go).
	evFail
	evDrain
	evRestore
)

// ctlEvent is one scheduled control action. Its key is (cycle, push
// sequence), so same-cycle events process in schedule order — a pure
// function of the deterministic event history.
type ctlEvent struct {
	kind ctlKind
	j    *JobRecord
	aux  int
}

// canAbandon reports whether abandon timer ev can still abandon its
// request: the request waits or runs under the attempt the timer guards.
func (ev *ctlEvent) canAbandon() bool {
	j := ev.j
	return (j.state == jsWaiting || j.state == jsRunning) && int(j.Attempts) == ev.aux
}

// clientState is one closed-loop client pool: its think/backoff stream,
// its request sequence, and the cursor of the request currently in the
// system (or just finished).
type clientState struct {
	stream *rng.Stream
	reqs   []JobRecord
	cursor int
}

// loopCtl is the event loop's control state over its clients and
// devices. It mutates the loop's queue, idle heap, flights and counters.
type loopCtl struct {
	f *Fleet
	l *loop

	// The pending control events. Timers and events (submissions,
	// retries, scale ticks, provisions) are stamped from seq, chaos
	// entries take chaosTie, so the three sources share one (cycle,
	// seq) order in which chaos wins every same-cycle tie. Timers and
	// chaos are pushed in that order, events at any cycle.
	events keyHeap[ctlEvent]
	timers monoQueue[ctlEvent]
	chaos  monoQueue[ctlEvent]
	seq    int
	// gen feeds the chaos queue one action at a time from the MTBF
	// generator; nil for an explicit trace, which is queued whole.
	gen *chaosGen

	// clients is indexed by client id.
	clients []clientState

	// Elastic-roster state, indexed by device (Fleet.order lists the
	// devices in placement order).
	active      []bool
	pending     []bool
	activeCount int
	pendingProv int
	epoch       uint64
	// scaleArmed tracks whether an evScale tick is scheduled; the tick
	// disarms itself once the loop has no outstanding work, so a drained
	// loop's control events run out instead of ticking forever.
	scaleArmed bool
	// rmBuf is the single-job scratch abandon passes to removeJobs.
	rmBuf [1]*JobRecord

	// Chaos state, indexed by device. A failed or draining device is
	// "down": it never sits in the idle heap and the dispatch pass never
	// sees it. downActive counts down devices the autoscaler holds
	// active, so the effective roster (upActive) prices outages into
	// pressure and predicted wait. Failure is not decommissioning:
	// active/activeCount are untouched, so a restore needs no
	// provisioning delay.
	failed        []bool
	draining      []bool
	failedCount   int
	drainingCount int
	downActive    int
}

// ctlEnabled reports whether any control surface is configured — the
// loop allocates a loopCtl exactly then.
func (f *Fleet) ctlEnabled() bool {
	return f.cfg.Closed.Enabled || f.cfg.Admission.Enabled || f.cfg.Autoscale.Enabled ||
		f.cfg.Chaos.Enabled
}

// newLoopCtl wires a control block to loop l. The autoscaler starts the
// roster at its floor: the first Autoscale.Min devices in placement
// order.
func (f *Fleet) newLoopCtl(l *loop) *loopCtl {
	total := len(f.devType)
	c := &loopCtl{
		f: f, l: l,
		active: make([]bool, total), pending: make([]bool, total),
		failed: make([]bool, total), draining: make([]bool, total),
	}
	want := total
	if f.cfg.Autoscale.Enabled {
		want = f.cfg.Autoscale.Min
		c.epoch = f.cfg.Autoscale.Epoch
	}
	for i, d := range f.order {
		if i < want {
			c.active[d] = true
			c.activeCount++
		}
	}
	return c
}

// initClients seeds every closed-loop client (none on an open-loop run)
// and schedules its first submission after an initial think draw.
func (c *loopCtl) initClients(perClient [][]JobRecord) {
	c.clients = make([]clientState, len(perClient))
	for id, reqs := range perClient {
		cs := &c.clients[id]
		cs.stream = rng.NewStream(rng.Hash3(c.f.cfg.Closed.Seed, uint64(id), 3))
		cs.reqs = reqs
		c.push(c.thinkDraw(cs), ctlEvent{kind: evSubmit, j: &cs.reqs[0]})
	}
}

// stamp returns the next deterministic tie-break sequence number.
func (c *loopCtl) stamp() int {
	c.seq++
	return c.seq - 1
}

// push schedules ev on the heap at cycle.
func (c *loopCtl) push(cycle uint64, ev ctlEvent) {
	c.events.push(cycle, c.stamp(), ev)
}

// head is the earliest pending control event by (cycle, seq) among
// the heap's root and the two queues' heads, or nil when none is
// pending. It first drops the stale abandon timers at the timer queue's
// head: a timer whose request has settled, waits out a retry backoff,
// or moved to a later attempt can never abandon it, so firing it would
// cost a loop iteration that changes nothing. A running request keeps
// its timer, because an eviction can requeue it under the same attempt.
func (c *loopCtl) head() *keyed[ctlEvent] {
	e := c.timers.peek()
	for e != nil && !e.val.canAbandon() {
		c.timers.pop()
		e = c.timers.peek()
	}
	if h := c.chaos.peek(); h != nil && (e == nil || h.at < e.at || h.at == e.at && h.tie < e.tie) {
		e = h
	}
	if len(c.events.v) > 0 {
		if h := &c.events.v[0]; e == nil || h.at < e.at || h.at == e.at && h.tie < e.tie {
			e = h
		}
	}
	return e
}

// next is the cycle of the earliest scheduled control event
// (MaxUint64 when none), the loop's third event source.
func (c *loopCtl) next() uint64 {
	if e := c.head(); e != nil {
		return e.at
	}
	return math.MaxUint64
}

// pop removes and returns the earliest scheduled control event; there
// must be one.
func (c *loopCtl) pop() ctlEvent {
	e := c.head()
	ev := e.val
	switch e {
	case c.timers.peek():
		c.timers.pop()
	case c.chaos.peek():
		c.chaos.pop()
		if c.gen != nil {
			c.queueChaos()
		}
	default:
		c.events.removeAt(0)
	}
	return ev
}

// step processes exactly one control event at its cycle. The owning
// loop runs its admit/dispatch passes between steps, so a submission is
// dispatchable before the next control action fires.
func (c *loopCtl) step(now uint64) {
	ev := c.pop()
	switch ev.kind {
	case evSubmit, evRetry:
		c.submit(ev.j, now, ev.kind == evRetry)
	case evAbandon:
		c.abandon(ev.j, ev.aux, now)
	case evProvision:
		c.provision(ev.aux)
	case evScale:
		c.scaleTick(now)
	case evFail:
		c.chaosFail(ev.aux)
	case evDrain:
		c.chaosDrain(ev.aux)
	case evRestore:
		c.chaosRestore(ev.aux)
	}
}

// chaosTie keys every chaos entry below every stamped sequence number,
// so at equal cycles a failure fires first: a submission never races
// onto a device the same cycle kills. The chaos queue keeps its own
// entries in execution order.
const chaosTie = -1

// initChaos queues the chaos schedule: an explicit trace whole, in
// execution order ((cycle, device), same-cycle same-device events in
// list order), or the MTBF generator's first action, after which pop
// queues each next one.
func (c *loopCtl) initChaos() {
	ch := &c.f.cfg.Chaos
	if !ch.Enabled {
		return
	}
	if len(ch.Trace) == 0 {
		c.gen = newChaosGen(*ch, len(c.f.devType))
		c.queueChaos()
		return
	}
	c.chaos.v = make([]keyed[ctlEvent], 0, len(ch.Trace))
	for _, ev := range ch.Trace {
		c.pushChaos(ev)
	}
	slices.SortStableFunc(c.chaos.v, func(a, b keyed[ctlEvent]) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.val.aux, b.val.aux))
	})
}

// queueChaos queues the generator's next action, if any.
func (c *loopCtl) queueChaos() {
	if ev, ok := c.gen.next(); ok {
		c.pushChaos(ev)
	}
}

// pushChaos appends chaos action ev to the chaos queue.
func (c *loopCtl) pushChaos(ev ChaosEvent) {
	k := evRestore
	switch ev.Kind {
	case ChaosFail:
		k = evFail
	case ChaosDrain:
		k = evDrain
	}
	c.chaos.push(ev.Cycle, chaosTie, ctlEvent{kind: k, aux: ev.Device})
}

// deviceUp reports whether device d may accept dispatches: neither
// failed nor draining. Retire sites gate their idle-heap push on it so
// a down device never re-enters placement order.
func (c *loopCtl) deviceUp(d int) bool { return !c.failed[d] && !c.draining[d] }

// upActive is the effective roster: active devices that are actually
// serving. The autoscaler's pressure and the admission predictor both
// divide by it, which is what makes a failure raise pressure (and may
// provision a spare) instead of silently shrinking the denominator's
// meaning.
func (c *loopCtl) upActive() int { return c.activeCount - c.downActive }

// chaosFail kills device d at the current cycle. An in-flight group is evicted
// with checkpointed progress (trigger "chaos") and its jobs re-enter
// the queue; an idle device just leaves the idle heap. Failing a
// draining or already-failed device only hardens the state.
func (c *loopCtl) chaosFail(d int) {
	if c.failed[d] {
		return
	}
	wasDown := c.draining[d]
	if wasDown {
		c.draining[d] = false
		c.drainingCount--
	}
	c.failed[d] = true
	c.failedCount++
	c.l.flightEpoch++
	c.l.res.Failures++
	if c.active[d] && !wasDown {
		c.downActive++
	}
	if fl := c.l.flightOf[d]; fl != nil {
		// The freed device stays out of the idle heap: it is down.
		c.l.release(fl, chaosTriggerID)
		c.l.res.ChaosEvictions++
	} else {
		c.l.idleDevs.remove(d)
	}
}

// chaosDrain stops new dispatch on device d: it leaves the idle heap,
// but a group in flight retires normally (the retire site's deviceUp
// gate keeps the device out of placement order afterwards).
func (c *loopCtl) chaosDrain(d int) {
	if c.failed[d] || c.draining[d] {
		return
	}
	c.draining[d] = true
	c.drainingCount++
	c.l.flightEpoch++
	c.l.res.Drains++
	if c.active[d] {
		c.downActive++
	}
	c.l.idleDevs.remove(d)
}

// chaosRestore returns a failed or draining device to service: if the
// autoscaler holds it active and no flight is still retiring on it, it
// re-enters the idle heap immediately.
func (c *loopCtl) chaosRestore(d int) {
	if !c.failed[d] && !c.draining[d] {
		return
	}
	if c.failed[d] {
		c.failed[d] = false
		c.failedCount--
	}
	if c.draining[d] {
		c.draining[d] = false
		c.drainingCount--
	}
	c.l.flightEpoch++
	c.l.res.Restores++
	if c.active[d] {
		c.downActive--
		if c.l.flightOf[d] == nil {
			c.l.idleDevs.push(d)
		}
	}
}

// submit is a closed-loop (re-)submission: count it, run admission,
// queue it and arm its timeout.
func (c *loopCtl) submit(j *JobRecord, now uint64, retry bool) {
	cc := &c.f.cfg.Closed
	j.Attempts++
	j.Arrival = now
	c.l.res.Submitted++
	if retry {
		c.l.res.Retried++
	}
	c.armScale(now)
	if !c.admit(j, now) {
		c.l.res.Rejected++
		c.fail(j, now, jsRejected)
		return
	}
	c.l.queue.insert(j)
	// Submissions run in cycle order, so with one Timeout the timers
	// queue in firing order. A timeout past the end of the cycle range
	// could never fire and is not armed.
	if at := now + cc.Timeout; cc.Timeout > 0 && at > now {
		c.timers.push(at, c.stamp(), ctlEvent{kind: evAbandon, j: j, aux: int(j.Attempts)})
	}
}

// admitOpen gates one open-loop arrival: counts the submission, arms
// the autoscaler and runs admission. It returns false when the job was
// terminally rejected (open arrivals never retry); the caller then
// skips the queue insert.
func (c *loopCtl) admitOpen(j *JobRecord, now uint64) bool {
	j.Attempts = 1
	c.l.res.Submitted++
	c.armScale(now)
	if c.admit(j, now) {
		return true
	}
	c.l.res.Rejected++
	j.state = jsRejected
	c.l.remaining--
	return false
}

// admit applies admission control to one submission: true admits
// (possibly degrading a latency job to batch in Degrade mode).
func (c *loopCtl) admit(j *JobRecord, now uint64) bool {
	ad := &c.f.cfg.Admission
	if !ad.Enabled || c.predictedWait(now) <= ad.MaxWait {
		return true
	}
	if ad.Degrade {
		if j.SLO == Latency {
			c.l.res.Degraded++
			j.SLO = Batch
			j.Deadline = 0
		}
		// Degrade mode never drops work; batch submissions ride out the
		// predicted wait.
		return true
	}
	return false
}

// predictedWait estimates the queueing wait a submission arriving now
// would see: zero with an idle active device; otherwise the time until
// the first up device frees (firstToFree: the model's predicted
// completion, exact under the Modeled engine) plus the queued backlog's work spread over
// the effective (up) roster. Down devices are priced out on both
// sides: a draining device's flight frees no capacity when it retires,
// and a failed device contributes nothing to the denominator. With
// Admission.Modeled the backlog term uses the interference-aware
// per-job estimate (queue.cowork) instead of the plain solo sum.
func (c *loopCtl) predictedWait(now uint64) uint64 {
	if len(c.l.idleDevs.v) > 0 {
		return 0
	}
	_, earliest := c.l.firstToFree()
	var wait uint64
	if earliest != inf && earliest > now {
		wait = earliest - now
	}
	if up := c.upActive(); up > 0 {
		work := c.l.queue.work
		if c.f.cfg.Admission.Modeled {
			work = c.l.queue.cowork
		}
		wait += work / uint64(up)
	}
	return wait
}

// abandon fires a queued request's timeout. The guards make stale
// timers no-ops: only the attempt the timer was armed for, and only
// while it is still waiting (running or finished requests keep their
// outcome).
func (c *loopCtl) abandon(j *JobRecord, attempt int, now uint64) {
	if j.state != jsWaiting || int(j.Attempts) != attempt {
		return
	}
	c.rmBuf[0] = j
	c.l.queue.removeJobs(c.rmBuf[:1])
	c.l.res.Abandoned++
	c.fail(j, now, jsAbandoned)
}

// fail ends one attempt short of completion: schedule a backoff retry
// while the budget lasts, otherwise settle the request terminally and
// let its client move on.
func (c *loopCtl) fail(j *JobRecord, now uint64, terminal uint8) {
	cc := &c.f.cfg.Closed
	if j.client >= 0 && int(j.Attempts) <= cc.Retries {
		j.state = jsPending
		shift := uint(j.Attempts - 1)
		if shift > 20 {
			shift = 20
		}
		c.push(now+cc.Backoff<<shift, ctlEvent{kind: evRetry, j: j})
		return
	}
	j.state = terminal
	c.l.remaining--
	if j.client >= 0 {
		c.clientAdvance(int(j.client), now, now)
	}
}

// onRetire advances every closed-loop client whose request just
// completed. Must run before the flight is recycled (recycle drops the
// member references).
func (c *loopCtl) onRetire(fl *inflight, now uint64) {
	for _, j := range fl.jobs {
		if j.client >= 0 {
			c.clientAdvance(int(j.client), now, j.Complete)
		}
	}
}

// clientAdvance moves client id to its next request, thinking from
// base (the previous request's completion or failure cycle). The
// submission is clamped to now so event time never runs backwards —
// a member can complete before its group's retire event.
func (c *loopCtl) clientAdvance(id int, now, base uint64) {
	cs := &c.clients[id]
	cs.cursor++
	if cs.cursor >= len(cs.reqs) {
		return
	}
	at := base + c.thinkDraw(cs)
	if at < now {
		at = now
	}
	c.push(at, ctlEvent{kind: evSubmit, j: &cs.reqs[cs.cursor]})
}

// thinkDraw draws one exponential think time from the client's stream.
func (c *loopCtl) thinkDraw(cs *clientState) uint64 {
	t := c.f.cfg.Closed.Think
	if t <= 0 {
		return 0
	}
	return uint64(expo(cs.stream) * t)
}

// armScale schedules the next autoscale tick on the epoch grid, unless
// one is already pending. Called on every submission, so a tick that
// disarmed during a lull re-arms as soon as work returns.
func (c *loopCtl) armScale(now uint64) {
	if c.epoch == 0 || c.scaleArmed {
		return
	}
	c.scheduleScale(now + 1)
}

// scheduleScale arms the autoscale tick at the first epoch boundary at
// or after t. A boundary past the end of the cycle range could never
// fire and is not armed.
func (c *loopCtl) scheduleScale(t uint64) {
	at := t + (c.epoch-t%c.epoch)%c.epoch
	c.scaleArmed = at >= t && at < inf
	if c.scaleArmed {
		c.push(at, ctlEvent{kind: evScale})
	}
}

// scaleTick evaluates the pressure watermarks and reschedules itself.
// With no outstanding work it disarms instead, so a finished run's
// control events drain (armScale re-arms on the next submission).
//
// A tick that provisions or releases nothing re-arms at the first epoch
// boundary at or after the loop's next other pending event (arrival,
// control event, resolved completion or unresolved bound). Nothing the
// tick reads changes before that event, so every tick in between would
// change nothing either; a whole-roster outage thus costs one tick, not
// one per epoch. With no event pending the tick disarms, so the loop
// reports its stall instead of ticking forever.
func (c *loopCtl) scaleTick(now uint64) {
	if c.l.remaining <= 0 {
		c.scaleArmed = false
		return
	}
	as := &c.f.cfg.Autoscale
	// Pressure is measured against the effective roster: a failed
	// device is not a decommission, but it serves nothing, so the same
	// queue reads as proportionally more pressure during an outage and
	// the walk may provision a spare around it. (With every device
	// down the division yields +Inf, which always trips the high
	// watermark.) Without chaos, upActive == activeCount exactly.
	pressure := float64(c.l.queue.Len()) / float64(c.upActive())
	acted := false
	if pressure > as.High && c.upActive()+c.pendingProv < as.Max {
		// Scale up: the first inactive, non-provisioning, serving
		// device in placement order starts provisioning and joins
		// after the delay. Down devices are skipped — provisioning a
		// failed device would add no capacity.
		for _, d := range c.f.order {
			if !c.active[d] && !c.pending[d] && c.deviceUp(d) {
				c.pending[d] = true
				c.pendingProv++
				c.push(now+as.Delay, ctlEvent{kind: evProvision, aux: d})
				acted = true
				break
			}
		}
	} else if pressure < as.Low && c.upActive() > as.Min {
		// Scale down: release the last active idle serving device in
		// placement order (the slowest), immediately. Busy devices are
		// never released — they retire their flight first — and down
		// devices are not decommissioned: their outage is transient
		// state the restore undoes, not a roster decision.
		for i := len(c.f.order) - 1; i >= 0; i-- {
			d := c.f.order[i]
			if c.active[d] && c.deviceUp(d) && c.l.flightOf[d] == nil {
				c.active[d] = false
				c.activeCount--
				c.l.idleDevs.remove(d)
				c.l.res.Decommissions++
				acted = true
				break
			}
		}
	}
	l := c.l
	next := c.next()
	if l.nextArr < len(l.arr) {
		next = min(next, l.arr[l.nextArr].Arrival)
	}
	if fl := l.resolved.peek(); fl != nil {
		next = min(next, fl.complete)
	}
	if fl := l.unresolved.peek(); fl != nil {
		next = min(next, fl.earliest)
	}
	switch {
	case next == inf:
		c.scaleArmed = false
	case acted:
		c.scheduleScale(now + 1)
	default:
		c.scheduleScale(max(next, now+1))
	}
}

// provision completes a scale-up: device d is active, and idle unless
// chaos took it down while it was provisioning.
func (c *loopCtl) provision(d int) {
	c.pending[d] = false
	c.pendingProv--
	c.active[d] = true
	c.activeCount++
	c.l.res.Provisions++
	if !c.deviceUp(d) {
		c.downActive++
		return
	}
	c.l.idleDevs.push(d)
}

// resolveClosed materializes the closed-loop request universe straight
// into the one record arena: every client's full request sequence,
// client-major (job id = client * Requests + request), each client's
// sequence a sub-slice of the arena. Names and SLO tags come from
// per-client streams derived only from the seed and the client id, and
// each distinct name resolves once into the appInfo its jobs share, as
// in resolve. Submission cycles are stamped at submit time.
func (f *Fleet) resolveClosed() ([]JobRecord, [][]JobRecord, error) {
	cc := f.cfg.Closed
	infos := make(map[string]*appInfo)
	jobs := make([]JobRecord, cc.Clients*cc.Requests)
	perClient := make([][]JobRecord, cc.Clients)
	for c := range perClient {
		names := rng.NewStream(rng.Hash3(cc.Seed, uint64(c), 1))
		slo := rng.NewStream(rng.Hash3(cc.Seed, uint64(c), 2))
		reqs := jobs[c*cc.Requests : (c+1)*cc.Requests]
		for r := range reqs {
			name := cc.Universe[names.Intn(len(cc.Universe))]
			info, err := f.appInfoFor(infos, name)
			if err != nil {
				return nil, nil, err
			}
			j := &reqs[r]
			j.ID, j.Name, j.app, j.client = c*cc.Requests+r, name, info, int32(c)
			if cc.LatencyFrac > 0 && slo.Float64() < cc.LatencyFrac {
				j.SLO, j.Deadline = Latency, cc.Deadline
			}
		}
		perClient[c] = reqs
	}
	return jobs, perClient, nil
}
