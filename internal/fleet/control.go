package fleet

import (
	"fmt"
	"math"
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
//     fixed epoch grid so sharded runs scale at the same barriers they
//     route on.
//
// All of it is driven through one deterministic control-event heap
// (loopCtl) owned by each event loop, ordered by (cycle, push
// sequence). Every random draw comes from per-client internal/rng
// streams derived only from the configured seed and the client id,
// never from which loop runs the client, so reruns are byte-identical
// at any shard count. With every feature disabled the loops carry a
// nil *loopCtl and the hot path pays one pointer check per event — the
// steady-state zero-allocation dispatch contract is untouched.

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
	// abandonment.
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
	// Seed drives every client's draws; same seed, same traffic at any
	// shard count.
	Seed uint64
	// Universe is the benchmark names requests draw from (uniformly).
	Universe []string
}

// AdmissionConfig parameterizes admission control (Config.Admission):
// a submission is admitted only if the loop's predicted queueing wait
// is at most MaxWait.
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
	// full roster). Sharded runs split both bounds across shards the
	// same way the roster is dealt, so Min must be at least the shard
	// count.
	Min, Max int
	// High and Low are the scale-up and scale-down pressure watermarks
	// (0 selects DefaultScaleHigh and DefaultScaleLow).
	High, Low float64
	// Delay is the provisioning latency in cycles between the scale-up
	// decision and the device accepting work (0 selects
	// DefaultProvisionDelay). Decommission is immediate — only idle
	// devices are released.
	Delay uint64
	// Epoch is the reconciliation quantum (0 selects ShardEpoch, or
	// DefaultShardEpoch outside sharded runs), so sharded fleets scale
	// at the same barriers they route on.
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
)

// Job lifecycle states (job.state), the conservation test's ground
// truth: every submitted attempt ends done, abandoned or rejected. The
// zero value is jsPending so arena-allocated jobs start unsubmitted.
const (
	jsPending uint8 = iota
	jsWaiting
	jsRunning
	jsDone
	jsAbandoned
	jsRejected
)

// ctlKind enumerates the control-event kinds the loops process.
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
	// guards; stale timers no-op).
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

// ctlEvent is one scheduled control action. seq is the push sequence,
// so same-cycle events process in schedule order — a pure function of
// the deterministic event history.
type ctlEvent struct {
	cycle uint64
	seq   int
	kind  ctlKind
	j     *job
	aux   int
}

// ctlHeap is a min-heap of control events by (cycle, seq).
type ctlHeap struct{ v []ctlEvent }

func ctlLess(a, b ctlEvent) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.seq < b.seq)
}

func (h *ctlHeap) push(ev ctlEvent) {
	h.v = append(h.v, ev)
	i := len(h.v) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ctlLess(h.v[i], h.v[p]) {
			break
		}
		h.v[i], h.v[p] = h.v[p], h.v[i]
		i = p
	}
}

func (h *ctlHeap) pop() ctlEvent {
	ev := h.v[0]
	n := len(h.v) - 1
	h.v[0] = h.v[n]
	h.v[n] = ctlEvent{}
	h.v = h.v[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && ctlLess(h.v[l], h.v[m]) {
			m = l
		}
		if r < n && ctlLess(h.v[r], h.v[m]) {
			m = r
		}
		if m == i {
			return ev
		}
		h.v[i], h.v[m] = h.v[m], h.v[i]
		i = m
	}
}

// clientState is one closed-loop client pool: its think/backoff stream,
// its request sequence, and the cursor of the request currently in the
// system (or just finished).
type clientState struct {
	stream *rng.Stream
	reqs   []*job
	cursor int
}

// loopCtl is one event loop's control state over its clients and
// devices. It mutates only state its loop owns (queue, idle heap,
// flights, counters).
type loopCtl struct {
	f *Fleet
	l *loop

	events ctlHeap
	seq    int

	// clients is indexed by global client id; entries owned by other
	// loops keep a nil stream and are never touched here.
	clients []clientState

	// Elastic-roster state over the loop's devices (l.order lists them in
	// placement order). active and pending are indexed by global device
	// index.
	active      []bool
	pending     []bool
	activeCount int
	pendingProv int
	minDev      int
	maxDev      int
	epoch       uint64
	// scaleArmed tracks whether an evScale tick is scheduled; the tick
	// disarms itself once the loop has no outstanding work, so a drained
	// loop's event heap empties instead of ticking forever.
	scaleArmed bool
	// rmBuf is the single-job scratch abandon passes to removeJobs.
	rmBuf [1]*job

	// Chaos state over the loop's devices, indexed by global device
	// index. A failed or draining device is "down": it never sits in
	// the idle heap and the dispatch pass never sees it. downActive
	// counts down devices the autoscaler holds active, so the effective
	// roster (upActive) prices outages into pressure and predicted
	// wait. Failure is not decommissioning: active/activeCount are
	// untouched, so a restore needs no provisioning delay.
	failed        []bool
	draining      []bool
	failedCount   int
	drainingCount int
	downActive    int
}

// ctlEnabled reports whether any control surface is configured — the
// loops allocate a loopCtl exactly then.
func (f *Fleet) ctlEnabled() bool {
	return f.cfg.Closed.Enabled || f.cfg.Admission.Enabled || f.cfg.Autoscale.Enabled ||
		f.cfg.Chaos.Enabled
}

// newLoopCtl wires a control block to loop l. minDev/maxDev are the
// loop's share of the autoscale bounds (ignored unless autoscaling).
func (f *Fleet) newLoopCtl(l *loop, minDev, maxDev int) *loopCtl {
	total := len(f.devType)
	c := &loopCtl{
		f: f, l: l,
		active: make([]bool, total), pending: make([]bool, total),
		failed: make([]bool, total), draining: make([]bool, total),
		minDev: minDev, maxDev: maxDev,
	}
	want := len(l.order)
	if f.cfg.Autoscale.Enabled {
		want = minDev
		c.epoch = f.cfg.Autoscale.Epoch
	}
	for i, d := range l.order {
		if i < want {
			c.active[d] = true
			c.activeCount++
		}
	}
	return c
}

// initClients seeds the given client ids (this loop's share) and
// schedules their first submissions after an initial think draw.
func (c *loopCtl) initClients(perClient [][]*job, ids []int) {
	cc := &c.f.cfg.Closed
	if c.clients == nil {
		c.clients = make([]clientState, cc.Clients)
	}
	for _, id := range ids {
		cs := &c.clients[id]
		cs.stream = rng.NewStream(rng.Hash3(cc.Seed, uint64(id), 3))
		cs.reqs = perClient[id]
		c.push(ctlEvent{cycle: c.thinkDraw(cs), kind: evSubmit, j: cs.reqs[0]})
	}
}

// push schedules ev, stamping the deterministic tie-break sequence.
func (c *loopCtl) push(ev ctlEvent) {
	ev.seq = c.seq
	c.seq++
	c.events.push(ev)
}

// next is the cycle of the earliest scheduled control event
// (MaxUint64 when none), the loop's third event source.
func (c *loopCtl) next() uint64 {
	if len(c.events.v) == 0 {
		return math.MaxUint64
	}
	return c.events.v[0].cycle
}

// step processes exactly one control event at its cycle. The owning
// loop runs its admit/dispatch passes between steps, so a submission is
// dispatchable before the next control action fires.
func (c *loopCtl) step(now uint64) {
	ev := c.events.pop()
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

// initChaos schedules this loop's share of the chaos events, skipping
// devices another loop owns. Called before initClients so the heap's
// tie-break sequence is a pure function of the configuration.
func (c *loopCtl) initChaos(events []ChaosEvent) {
	for _, ev := range events {
		if c.l.slot[ev.Device] < 0 {
			continue
		}
		var k ctlKind
		switch ev.Kind {
		case ChaosFail:
			k = evFail
		case ChaosDrain:
			k = evDrain
		default:
			k = evRestore
		}
		c.push(ctlEvent{cycle: ev.Cycle, kind: k, aux: ev.Device})
	}
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

// chaosFail kills device d at the loop's cycle. An in-flight group is evicted
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
	c.l.res.Failures++
	if c.active[d] && !wasDown {
		c.downActive++
	}
	if fl := c.l.flightOf[c.l.slot[d]]; fl != nil {
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
	c.l.res.Restores++
	if c.active[d] {
		c.downActive--
		if c.l.flightOf[c.l.slot[d]] == nil {
			c.l.idleDevs.push(d)
		}
	}
}

// submit is a closed-loop (re-)submission: count it, run admission,
// queue it and arm its timeout.
func (c *loopCtl) submit(j *job, now uint64, retry bool) {
	cc := &c.f.cfg.Closed
	j.attempts++
	j.arrival = now
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
	if cc.Timeout > 0 {
		c.push(ctlEvent{cycle: now + cc.Timeout, kind: evAbandon, j: j, aux: j.attempts})
	}
}

// admitOpen gates one open-loop arrival: counts the submission, arms
// the autoscaler and runs admission. It returns false when the job was
// terminally rejected (open arrivals never retry); the caller then
// skips the queue insert.
func (c *loopCtl) admitOpen(j *job, now uint64) bool {
	j.attempts = 1
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
func (c *loopCtl) admit(j *job, now uint64) bool {
	ad := &c.f.cfg.Admission
	if !ad.Enabled || c.predictedWait(now) <= ad.MaxWait {
		return true
	}
	if ad.Degrade {
		if j.slo == Latency {
			c.l.res.Degraded++
			j.slo = Batch
			j.deadline = 0
		}
		// Degrade mode never drops work; batch submissions ride out the
		// predicted wait.
		return true
	}
	return false
}

// predictedWait estimates the queueing wait a submission arriving now
// would see: zero with an idle active device; otherwise the time until
// the first device frees (the model's predicted completion — exact
// under the Modeled engine) plus the queued backlog's work spread over
// the effective (up) roster. Down devices are priced out on both
// sides: a draining device's flight frees no capacity when it retires,
// and a failed device contributes nothing to the denominator. With
// Admission.Modeled the backlog term uses the interference-aware
// per-job estimate (queue.cowork) instead of the plain solo sum.
func (c *loopCtl) predictedWait(now uint64) uint64 {
	if len(c.l.idleDevs.v) > 0 {
		return 0
	}
	earliest := uint64(math.MaxUint64)
	for _, fl := range c.l.flightOf {
		if fl == nil {
			continue
		}
		if !c.deviceUp(fl.device) {
			continue
		}
		if free := c.f.predictedFree(fl); free < earliest {
			earliest = free
		}
	}
	var wait uint64
	if earliest != math.MaxUint64 && earliest > now {
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
func (c *loopCtl) abandon(j *job, attempt int, now uint64) {
	if j.state != jsWaiting || j.attempts != attempt {
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
func (c *loopCtl) fail(j *job, now uint64, terminal uint8) {
	cc := &c.f.cfg.Closed
	if j.client >= 0 && j.attempts <= cc.Retries {
		j.state = jsPending
		shift := uint(j.attempts - 1)
		if shift > 20 {
			shift = 20
		}
		c.push(ctlEvent{cycle: now + cc.Backoff<<shift, kind: evRetry, j: j})
		return
	}
	j.state = terminal
	c.l.remaining--
	if j.client >= 0 {
		c.clientAdvance(j.client, now, now)
	}
}

// onRetire advances every closed-loop client whose request just
// completed. Must run before the flight is recycled (recycle drops the
// member references).
func (c *loopCtl) onRetire(fl *inflight, now uint64) {
	for _, j := range fl.jobs {
		if j.client >= 0 {
			c.clientAdvance(j.client, now, j.complete)
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
	c.push(ctlEvent{cycle: at, kind: evSubmit, j: cs.reqs[cs.cursor]})
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
// one is already pending. Called on every submission, so a loop whose
// tick disarmed during a lull re-arms as soon as work returns.
func (c *loopCtl) armScale(now uint64) {
	if c.epoch == 0 || c.scaleArmed {
		return
	}
	c.scaleArmed = true
	c.push(ctlEvent{cycle: now - now%c.epoch + c.epoch, kind: evScale})
}

// scaleTick evaluates the pressure watermarks and reschedules itself.
// With no outstanding work it disarms instead, so a finished loop's
// event heap drains (armScale re-arms on the next submission).
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
	if pressure > as.High && c.upActive()+c.pendingProv < c.maxDev {
		// Scale up: the first inactive, non-provisioning, serving
		// device in placement order starts provisioning and joins
		// after the delay. Down devices are skipped — provisioning a
		// failed device would add no capacity.
		for _, d := range c.l.order {
			if !c.active[d] && !c.pending[d] && c.deviceUp(d) {
				c.pending[d] = true
				c.pendingProv++
				c.push(ctlEvent{cycle: now + as.Delay, kind: evProvision, aux: d})
				break
			}
		}
	} else if pressure < as.Low && c.upActive() > c.minDev {
		// Scale down: release the last active idle serving device in
		// placement order (the slowest), immediately. Busy devices are
		// never released — they retire their flight first — and down
		// devices are not decommissioned: their outage is transient
		// state the restore undoes, not a roster decision.
		for i := len(c.l.order) - 1; i >= 0; i-- {
			d := c.l.order[i]
			if c.active[d] && c.deviceUp(d) && c.l.flightOf[c.l.slot[d]] == nil {
				c.active[d] = false
				c.activeCount--
				c.l.idleDevs.remove(d)
				c.l.res.Decommissions++
				break
			}
		}
	}
	c.push(ctlEvent{cycle: now + c.epoch, kind: evScale})
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

// resolveClosed materializes the closed-loop request universe: every
// client's full request sequence, client-major (job id = client *
// Requests + request). Names and SLO tags come from per-client streams
// derived only from the seed and the client id, so the request mix is
// identical at any shard count. Submission cycles are stamped at
// submit time; resolve only needs the names in a fixed order.
func (f *Fleet) resolveClosed() ([]*job, [][]*job, error) {
	cc := f.cfg.Closed
	arrivals := make([]Arrival, 0, cc.Clients*cc.Requests)
	for c := 0; c < cc.Clients; c++ {
		names := rng.NewStream(rng.Hash3(cc.Seed, uint64(c), 1))
		slo := rng.NewStream(rng.Hash3(cc.Seed, uint64(c), 2))
		for r := 0; r < cc.Requests; r++ {
			a := Arrival{Name: cc.Universe[names.Intn(len(cc.Universe))]}
			if cc.LatencyFrac > 0 && slo.Float64() < cc.LatencyFrac {
				a.SLO = Latency
				a.Deadline = cc.Deadline
			}
			arrivals = append(arrivals, a)
		}
	}
	jobs, err := f.resolve(arrivals)
	if err != nil {
		return nil, nil, err
	}
	perClient := make([][]*job, cc.Clients)
	for c := 0; c < cc.Clients; c++ {
		reqs := jobs[c*cc.Requests : (c+1)*cc.Requests]
		for _, j := range reqs {
			j.client = c
		}
		perClient[c] = reqs
	}
	return jobs, perClient, nil
}
