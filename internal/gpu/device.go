package gpu

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/icnt"
	"repro/internal/kernel"
	"repro/internal/smcore"
	"repro/internal/stats"
)

// AppHandle identifies a launched application within one Device.
type AppHandle int

// app tracks one application's dispatch and completion state.
type app struct {
	handle   AppHandle
	kern     *kernel.Kernel
	st       stats.App
	nextCTA  int
	ctasDone int
	started  bool
	done     bool
}

// Device is one simulated GPU. It is not safe for concurrent use.
type Device struct {
	cfg   config.GPUConfig
	sms   []*smcore.SM
	parts []*partition
	net   *icnt.Network
	apps  []*app
	cycle uint64
	// rrStart rotates SM service order so interconnect injection is fair
	// across cores when bandwidth-limited.
	rrStart int
	// owned[h] counts the SMs currently owned by application h. It is
	// maintained through the SMs' owner-change hooks so per-cycle
	// utilization accounting never scans the full SM array.
	owned []int
	// pendingDispatch counts applications that still have thread blocks
	// to hand out; when zero, Step skips the per-SM dispatch calls.
	pendingDispatch int
	// skipped counts cycles the fast-forward engine jumped over instead
	// of stepping (introspection: SkippedCycles).
	skipped uint64
	// lastSig is the activity signature FastForward last observed; an
	// unchanged signature marks the preceding Step as dead and worth
	// computing a horizon for. ffWait/ffBackoff implement deterministic
	// exponential backoff: every futile probe (no cycles skipped)
	// doubles the number of Steps before the next probe, and any
	// successful skip resets it, so saturated phases stop paying the
	// probe cost while idle phases keep skipping at full resolution.
	lastSig   uint64
	ffWait    uint64
	ffBackoff uint64
}

// New builds an idle device from a validated configuration.
func New(cfg config.GPUConfig) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg}
	net, err := icnt.New(cfg.Icnt, cfg.NumMemPartitions, cfg.L2.LineBytes)
	if err != nil {
		return nil, err
	}
	d.net = net
	d.sms = make([]*smcore.SM, cfg.NumSMs)
	for i := range d.sms {
		sm, err := smcore.New(i, cfg)
		if err != nil {
			return nil, err
		}
		sm.OnOwnerChange = d.onOwnerChange
		d.sms[i] = sm
	}
	d.parts = make([]*partition, cfg.NumMemPartitions)
	for i := range d.parts {
		p, err := newPartition(i, cfg)
		if err != nil {
			return nil, err
		}
		d.parts[i] = p
	}
	return d, nil
}

// MustNew is New panicking on error, for tests and examples.
func MustNew(cfg config.GPUConfig) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() config.GPUConfig { return d.cfg }

// Cycle returns the current simulated cycle.
func (d *Device) Cycle() uint64 { return d.cycle }

// Launch registers a kernel as a new application and assigns it the
// given SM set. Every named SM must currently be idle and unowned or
// owned by a finished application. On error no SM changes owner: a
// partial assignment (a later SM in smIDs invalid or busy) is rolled
// back so earlier SMs are not left pointing at an application handle
// that was never registered.
func (d *Device) Launch(k *kernel.Kernel, smIDs []int) (AppHandle, error) {
	if k == nil {
		return 0, fmt.Errorf("gpu: launch of nil kernel")
	}
	if len(smIDs) == 0 {
		return 0, fmt.Errorf("gpu: launch of %s with no SMs", k.Name)
	}
	h := AppHandle(len(d.apps))
	a := &app{handle: h, kern: k, st: stats.App{Name: k.Name, StartCycle: d.cycle}}
	prev := make([]prevOwner, 0, len(smIDs))
	fail := func(err error) (AppHandle, error) {
		// Undo newest-first: a duplicate SM id in smIDs snapshots the SM
		// twice (the second time owned by the handle being rolled back),
		// and only reverse replay lands it back on its original owner.
		for i := len(prev) - 1; i >= 0; i-- {
			p := prev[i]
			_ = d.sms[p.sm].Assign(p.app, p.kern, p.st)
		}
		return 0, err
	}
	for _, id := range smIDs {
		if id < 0 || id >= len(d.sms) {
			return fail(fmt.Errorf("gpu: launch of %s on invalid SM %d", k.Name, id))
		}
		sm := d.sms[id]
		if !sm.Idle() {
			return fail(fmt.Errorf("gpu: launch of %s on busy SM %d", k.Name, id))
		}
		old := prevOwner{sm: id, app: sm.App()}
		if old.app >= 0 && int(old.app) < len(d.apps) {
			prior := d.apps[old.app]
			old.kern, old.st = prior.kern, &prior.st
		}
		if err := sm.Assign(int16(h), k, &a.st); err != nil {
			return fail(err)
		}
		prev = append(prev, old)
		sm.OnCTADone = d.onCTADone
	}
	d.apps = append(d.apps, a)
	d.pendingDispatch++
	return h, nil
}

// prevOwner snapshots one SM's ownership for Launch rollback.
type prevOwner struct {
	sm   int
	app  int16
	kern *kernel.Kernel
	st   *stats.App
}

// onOwnerChange maintains the per-application SM-ownership counts; it is
// installed as every SM's owner-change hook.
func (d *Device) onOwnerChange(old, new int16) {
	if old >= 0 && int(old) < len(d.owned) {
		d.owned[old]--
	}
	if new >= 0 {
		for int(new) >= len(d.owned) {
			d.owned = append(d.owned, 0)
		}
		d.owned[new]++
	}
}

func (d *Device) onCTADone(appIdx int16) {
	if appIdx < 0 || int(appIdx) >= len(d.apps) {
		return
	}
	a := d.apps[appIdx]
	a.ctasDone++
	if a.ctasDone >= a.kern.CTAs && !a.done {
		a.done = true
		a.st.Done = true
		a.st.EndCycle = d.cycle
	}
}

// Done reports whether the application's grid has fully retired.
func (d *Device) Done(h AppHandle) bool {
	return d.apps[h].done
}

// AllDone reports whether every launched application has retired.
func (d *Device) AllDone() bool {
	for _, a := range d.apps {
		if !a.done {
			return false
		}
	}
	return len(d.apps) > 0
}

// SMOwner returns the application owning an SM, or -1.
func (d *Device) SMOwner(smID int) int16 { return d.sms[smID].App() }

// SMsOwnedBy returns the SM ids currently owned by h.
func (d *Device) SMsOwnedBy(h AppHandle) []int {
	var out []int
	for i, sm := range d.sms {
		if sm.App() == int16(h) {
			out = append(out, i)
		}
	}
	return out
}

// ReassignSM initiates a drain-then-transfer of one SM to application h.
// The transfer completes when the SM's resident blocks retire; new
// blocks of h start launching immediately after.
func (d *Device) ReassignSM(smID int, h AppHandle) error {
	if smID < 0 || smID >= len(d.sms) {
		return fmt.Errorf("gpu: reassign of invalid SM %d", smID)
	}
	if h < 0 || int(h) >= len(d.apps) {
		return fmt.Errorf("gpu: reassign to unknown app %d", h)
	}
	a := d.apps[h]
	d.sms[smID].RequestReassign(int16(h), a.kern, &a.st)
	d.sms[smID].OnCTADone = d.onCTADone
	return nil
}

// Step advances the device one core cycle.
//
//simlint:hotpath
func (d *Device) Step() {
	d.cycle++
	now := d.cycle
	d.net.Begin()

	// Dispatch thread blocks, execute, and inject memory traffic, with a
	// rotating start for fairness under bandwidth pressure. The rotation
	// is two plain slice walks rather than a per-SM modulo.
	n := len(d.sms)
	start := d.rrStart % n
	for _, sm := range d.sms[start:] {
		d.stepSM(sm, now)
	}
	for _, sm := range d.sms[:start] {
		d.stepSM(sm, now)
	}
	d.rrStart++

	for _, p := range d.parts {
		p.tick(now, d.net)
	}

	for _, resp := range d.net.PopArrivedToSM(now) {
		d.sms[resp.SM].HandleResponse(resp)
	}

	// Account SM-cycle ownership for utilization bookkeeping. The
	// per-application ownership counts are maintained by the SMs'
	// owner-change hooks, so this never scans the SM array.
	for _, a := range d.apps {
		if !a.done && int(a.handle) < len(d.owned) {
			a.st.SMCycleSlots += uint64(d.owned[a.handle])
		}
	}
}

// stepSM advances one SM within a device cycle: dispatch, execute, and
// drain its memory output queue into the interconnect.
func (d *Device) stepSM(sm *smcore.SM, now uint64) {
	if d.pendingDispatch > 0 {
		d.dispatch(sm, now)
	}
	sm.Tick(now)
	for sm.OutPending() > 0 {
		req, _ := sm.PeekOut()
		if !d.net.TrySendToMem(req, now) {
			break
		}
		sm.PopOut()
	}
}

// dispatch pulls pending thread blocks of the SM's owner onto the SM.
func (d *Device) dispatch(sm *smcore.SM, now uint64) {
	owner := sm.App()
	if owner < 0 || int(owner) >= len(d.apps) {
		return
	}
	a := d.apps[owner]
	// One block per SM per cycle: spreads the grid across the owner's SM
	// set instead of saturating the first cores scanned.
	if a.nextCTA < a.kern.CTAs && sm.CanLaunch() {
		if err := sm.LaunchCTA(a.nextCTA, now); err != nil {
			return
		}
		a.nextCTA++
		if a.nextCTA == a.kern.CTAs {
			d.pendingDispatch--
		}
	}
}

// NoEvent is the NextEvent result of a device that can make no further
// progress on its own (every application retired, or a livelock).
const NoEvent = ^uint64(0)

// NextEvent returns the earliest future cycle (> Cycle) at which any
// component of the device could make progress: an SM issues or a warp's
// fixed latency expires, a thread block becomes dispatchable, a DRAM
// transfer completes or a queued request becomes serviceable, a
// response becomes eligible, or a flit finishes traversing the
// interconnect. Every cycle strictly before the returned horizon is
// provably identical to not stepping at all (modulo arithmetic
// accounting, which FastForward performs), which is what makes the
// fast-forward engine's results bit-identical to the naive Step loop.
//
// The scan exits as soon as any source reports the next cycle, so in
// saturated phases (ready warps everywhere) its cost is a handful of
// queue-length checks.
func (d *Device) NextEvent() uint64 {
	now := d.cycle
	next := uint64(NoEvent)
	for _, sm := range d.sms {
		// Pending thread-block dispatch is progress the SM cannot see:
		// the device's work distributor launches one block per SM per
		// cycle whenever the owner has blocks left and the SM has room.
		if d.pendingDispatch > 0 {
			if owner := sm.App(); owner >= 0 && int(owner) < len(d.apps) {
				a := d.apps[owner]
				if a.nextCTA < a.kern.CTAs && sm.CanLaunch() {
					return now + 1
				}
			}
		}
		h := sm.NextEvent(now)
		if h <= now+1 {
			return now + 1
		}
		if h < next {
			next = h
		}
	}
	for _, p := range d.parts {
		h := p.nextEvent(now)
		if h <= now+1 {
			return now + 1
		}
		if h < next {
			next = h
		}
	}
	h := d.net.NextEvent(now)
	if h <= now+1 {
		return now + 1
	}
	if h < next {
		next = h
	}
	return next
}

// FastForward jumps the device over provably-idle cycles: if no
// component can make progress before cycle H = NextEvent(), the device
// state after stepping naively to H-1 differs from the current state
// only by per-cycle arithmetic (utilization slots, bandwidth-budget
// refills, round-robin rotation — DRAM bus-busy accounting catches up
// on the controller's next tick), which is accrued here in O(1) per
// component. The jump lands at H-1 so the next
// Step executes the event cycle itself, and it never advances beyond
// limit, so callers interleaving external per-cycle control (run
// bounds, the SMRA controller's evaluation period) cap the skip at the
// last cycle they are willing to treat as idle. It returns the new
// current cycle.
func (d *Device) FastForward(limit uint64) uint64 {
	if limit <= d.cycle {
		return d.cycle
	}
	// Backoff and activity gates: probing costs a signature read and,
	// on a quiet Step, a horizon scan; both are pure cost dodges —
	// NextEvent remains the sole source of truth for how far a jump may
	// go, and an unprobed cycle simply steps naively.
	if d.ffWait > 0 {
		d.ffWait--
		return d.cycle
	}
	// A Step that advanced any monotone progress counter (instructions
	// issued, packets injected, DRAM commands scheduled) almost always
	// has its next event one cycle out.
	if sig := d.activitySignature(); sig != d.lastSig {
		d.lastSig = sig
		d.futileProbe()
		return d.cycle
	}
	to := limit
	if h := d.NextEvent(); h != NoEvent && h-1 < to {
		to = h - 1
	}
	if to <= d.cycle {
		d.futileProbe()
		return d.cycle
	}
	d.ffBackoff = 0
	span := to - d.cycle
	d.net.FastForward(span)
	for _, a := range d.apps {
		if !a.done && int(a.handle) < len(d.owned) {
			a.st.SMCycleSlots += span * uint64(d.owned[a.handle])
		}
	}
	// Keep the round-robin phase exactly where naive stepping would have
	// left it (rrStart is only ever read modulo the SM count).
	d.rrStart = int((uint64(d.rrStart) + span) % uint64(len(d.sms)))
	d.skipped += span
	d.cycle = to
	return d.cycle
}

// SkippedCycles returns the number of cycles the fast-forward engine
// jumped over instead of stepping.
func (d *Device) SkippedCycles() uint64 { return d.skipped }

// futileProbe doubles the probe backoff after a FastForward call that
// skipped nothing, capped so a phase change is noticed within tens of
// cycles.
func (d *Device) futileProbe() {
	if d.ffBackoff == 0 {
		d.ffBackoff = 1
	} else if d.ffBackoff < 64 {
		d.ffBackoff *= 2
	}
	d.ffWait = d.ffBackoff - 1
}

// activitySignature sums the device's monotone progress counters. All
// summands are non-decreasing, so an unchanged sum means no instruction
// issued, no packet entered the interconnect, and no DRAM command was
// scheduled since the last reading.
func (d *Device) activitySignature() uint64 {
	var s uint64
	for _, sm := range d.sms {
		s += sm.Issued()
	}
	s += d.net.Progress()
	for _, p := range d.parts {
		s += p.mc.Progress()
	}
	return s
}

// Run advances the device until every application retires or maxCycles
// elapse; it returns an error on timeout (a livelock symptom in tests).
// Idle spans are fast-forwarded; the result is bit-identical to calling
// Step in a loop.
func (d *Device) Run(maxCycles uint64) error {
	return d.RunUntil(d.cycle + maxCycles)
}

// RunUntil advances the device until every application retires,
// fast-forwarding provably-idle spans; it errors when the device
// reaches absolute cycle limit with applications unfinished, leaving
// the device at exactly the cycle the naive Step loop would have
// stopped at.
func (d *Device) RunUntil(limit uint64) error {
	start := d.cycle
	for !d.AllDone() {
		if d.cycle >= limit {
			return fmt.Errorf("gpu: run exceeded %d cycles (%d apps unfinished)",
				limit-start, d.unfinished())
		}
		d.Step()
		// Exit before fast-forwarding: once the last application retires
		// the naive loop stops at exactly this cycle, and post-completion
		// residue (draining write-backs) must not advance the clock.
		if d.AllDone() {
			break
		}
		d.FastForward(limit)
	}
	return nil
}

func (d *Device) unfinished() int {
	n := 0
	for _, a := range d.apps {
		if !a.done {
			n++
		}
	}
	return n
}

// AppStats returns a snapshot of application h's counters with derived
// traffic attribution folded in from the memory system. For a running
// application the residency window is closed at the current cycle.
func (d *Device) AppStats(h AppHandle) stats.App {
	a := d.apps[h]
	st := a.st
	if !a.done {
		st.EndCycle = d.cycle
	}
	st.L2ToL1Bytes = d.net.AppToSMBytes(int16(h))
	var dramBytes uint64
	for _, p := range d.parts {
		dramBytes += p.mc.AppBytes(int16(h))
	}
	st.DRAMBytes = dramBytes
	return st
}

// AppMetrics derives the Table 3.2 metrics for application h.
func (d *Device) AppMetrics(h AppHandle) stats.Metrics {
	return d.AppStats(h).Derive(d.cfg)
}

// DeviceStats aggregates the whole run.
func (d *Device) DeviceStats() stats.Device {
	ds := stats.Device{Cycles: d.cycle}
	for i := range d.apps {
		st := d.AppStats(AppHandle(i))
		ds.Apps = append(ds.Apps, st)
		ds.ThreadInstructions += st.ThreadInstructions
	}
	return ds
}

// Apps returns the number of launched applications.
func (d *Device) Apps() int { return len(d.apps) }

// CTAsDone returns the number of completed thread blocks of h.
func (d *Device) CTAsDone(h AppHandle) int { return d.apps[h].ctasDone }
