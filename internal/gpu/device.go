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

// Run advances the device until every application retires or maxCycles
// elapse; it returns an error on timeout (a livelock symptom in tests).
func (d *Device) Run(maxCycles uint64) error {
	return d.RunUntil(d.cycle + maxCycles)
}

// RunUntil steps the device until every application retires; it errors
// when the device reaches absolute cycle limit with applications
// unfinished. A device that can never progress again steps all the way
// to limit: an idle GTX480 step takes 0.56–0.62 µs on a 2-vCPU Xeon
// guest, so running out sched.MaxGroupCycles (80M cycles) takes 45–50 s
// before the error.
func (d *Device) RunUntil(limit uint64) error {
	start := d.cycle
	for !d.AllDone() {
		if d.cycle >= limit {
			return fmt.Errorf("gpu: run exceeded %d cycles (%d apps unfinished)",
				limit-start, d.unfinished())
		}
		d.Step()
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
