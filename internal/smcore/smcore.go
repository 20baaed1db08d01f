// Package smcore models one streaming multiprocessor (SIMT core): CTA
// and warp slots with occupancy limits, dual greedy-then-oldest (GTO)
// warp schedulers, a scoreboard (per-warp pending-load counts and
// fixed-latency busy windows), an L1 data cache with MSHRs, and a
// bounded memory output queue toward the interconnect.
//
// An SM is owned by at most one application at a time. Ownership can be
// transferred with the drain-then-transfer protocol the thesis adopts
// (Section 3.2.4, "the last way"): the SM stops accepting new CTAs,
// finishes its resident blocks, and only then switches to the new owner.
package smcore

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/fifo"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/memreq"
	"repro/internal/stats"
)

// NoApp marks an unowned SM.
const NoApp int16 = -1

// NoEvent is the wake cycle of a warp that only an event (a load fill
// or a barrier release) can wake, and the scan watermark of a scheduler
// with no warp to wake.
const NoEvent = ^uint64(0)

type warp struct {
	active       bool
	finished     bool
	atBarrier    bool
	cachedValid  bool // cachedOp/cachedLines replay a structurally stalled instruction
	cachedOp     isa.Op
	ctaSlot      int32
	globalID     int32 // kernel-wide warp index, drives Fetch
	pc           int32
	pendingLoads int32
	blockedUntil uint64
	// stallEpoch and stallRoom record the L1 epoch and the miss room of
	// the replayed load's last structural stall (valid while stalled):
	// the replay fails again, unprobed, until either one moves.
	stalled     bool
	stallRoom   int32
	stallEpoch  uint64
	cachedLines []uint64
	// opRow is the warp's row of the kernel's unit-code table (nil for
	// grids above the table cap); it makes the compute fast path one
	// 2-bit lookup (kernel.RowUnit).
	opRow []uint8
}

type ctaSlot struct {
	active    bool
	warpsLeft int32
	arrived   int32
	warpSlots []int32
}

// SM is one streaming multiprocessor.
type SM struct {
	id  int32
	cfg config.GPUConfig
	l1  *cache.Cache

	app      int16
	kern     *kernel.Kernel
	appStats *stats.App
	maxCTAs  int

	warps        []warp
	ctas         []ctaSlot
	residentCTAs int
	maxSlots     int

	// Each scheduler issues from its oldest ready warp. Greedy-then-
	// oldest collapses to this rule: the greedy warp, once it wakes, is
	// the oldest ready warp whenever it is still runnable. A warp's age
	// is fixed at launch and a ready warp stays ready until it issues,
	// so the oldest ready warp is the first one a scan of the
	// scheduler's warps in age order finds ready.
	//
	// ageSlot/ageWake/ageLen hold, per scheduler, its live warps in
	// launch (age) order as parallel arrays: region s starts at
	// s*maxSlots, and ageWake[i] is warp ageSlot[i]'s effective wake
	// cycle (NoEvent while it waits on a load fill or barrier release),
	// so the scan walks a dense uint64 array instead of chasing warp
	// structs. agePos maps a slot to its position in its region.
	// scanAt[s] is the earliest cycle at which scheduler s's scan could
	// find a ready warp: a failed scan records the region's minimum
	// wake, and every event wake-up (load fill, barrier release, warp
	// launch) resets it. Scans are skipped while scanAt > now — exactly
	// the cycles in which they would fail — so a fully memory-blocked
	// SM costs O(1) per cycle.
	// idleUntil is min(scanAt): Tick returns immediately while now is
	// strictly below it. Event wake-ups reset it alongside scanAt.
	ageSlot   []int32
	ageWake   []uint64
	ageLen    []int32
	agePos    []int32
	scanAt    []uint64
	idleUntil uint64
	// slotSched caches slot % SchedulersPerSM (a non-constant modulo on
	// the hottest paths otherwise); unitLat holds the functional-unit
	// latencies, indexed by kernel.Unit and pre-widened for Tick's
	// compute path (the UnitOther entry is unused).
	slotSched []int32
	unitLat   [4]uint64

	activeWarps int

	out      fifo.Queue[memreq.Request]
	outLimit int

	lineBuf []uint64

	pendingApp    int16
	pendingKernel *kernel.Kernel
	pendingStats  *stats.App

	// OnCTADone is invoked when a thread block completes, with the
	// owning application at completion time.
	OnCTADone func(app int16)

	// OnOwnerChange is invoked whenever the SM's owning application
	// switches (Assign or a drain-then-transfer completion), with
	// the outgoing and incoming owners. The device uses it to maintain
	// per-application ownership counts without scanning every SM each
	// cycle.
	OnOwnerChange func(old, new int16)
}

// New builds an idle SM.
func New(id int, cfg config.GPUConfig) (*SM, error) {
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("sm %d: %w", id, err)
	}
	sm := &SM{
		id:         int32(id),
		cfg:        cfg,
		l1:         l1,
		app:        NoApp,
		pendingApp: NoApp,
		warps:      make([]warp, cfg.MaxWarpsPerSM),
		ctas:       make([]ctaSlot, cfg.MaxBlocksPerSM),
		maxSlots:   cfg.MaxWarpsPerSM,
		outLimit:   cfg.MaxWarpsPerSM, // one outstanding miss per warp on average
		lineBuf:    make([]uint64, cfg.WarpSize),
	}
	sm.unitLat[kernel.UnitALU] = uint64(cfg.ALULatency)
	sm.unitLat[kernel.UnitSFU] = uint64(cfg.SFULatency)
	sm.unitLat[kernel.UnitShared] = uint64(cfg.SharedLatency)
	nslots := cfg.SchedulersPerSM * cfg.MaxWarpsPerSM
	sm.ageSlot = make([]int32, nslots)
	sm.ageWake = make([]uint64, nslots)
	sm.ageLen = make([]int32, cfg.SchedulersPerSM)
	sm.agePos = make([]int32, cfg.MaxWarpsPerSM)
	sm.scanAt = make([]uint64, cfg.SchedulersPerSM)
	sm.slotSched = make([]int32, cfg.MaxWarpsPerSM)
	for i := range sm.slotSched {
		sm.slotSched[i] = int32(i % cfg.SchedulersPerSM)
	}
	for i := range sm.ctas {
		sm.ctas[i].warpSlots = make([]int32, 0, cfg.MaxWarpsPerSM)
	}
	return sm, nil
}

// agePush appends a newly launched warp to its scheduler's age order.
// A warp's age is its launch order, so appending keeps the region
// sorted.
func (sm *SM) agePush(slot int32, wake uint64) {
	s := int(sm.slotSched[slot])
	i := s*sm.maxSlots + int(sm.ageLen[s])
	sm.agePos[slot] = sm.ageLen[s]
	sm.ageSlot[i] = slot
	sm.ageWake[i] = wake
	sm.ageLen[s]++
	sm.scanAt[s] = 0
	sm.idleUntil = 0
}

// ageRemove drops a retired warp from its scheduler's age order,
// preserving the order of the rest.
func (sm *SM) ageRemove(slot int32) {
	s := int(sm.slotSched[slot])
	base := s * sm.maxSlots
	n := int(sm.ageLen[s])
	slots := sm.ageSlot[base : base+n]
	wakes := sm.ageWake[base : base+n]
	i := int(sm.agePos[slot])
	copy(slots[i:], slots[i+1:])
	copy(wakes[i:], wakes[i+1:])
	sm.ageLen[s]--
	for ; i < n-1; i++ {
		sm.agePos[slots[i]] = int32(i)
	}
}

// wakeAt records an event wake-up: the warp becomes issuable at cycle
// wake and its scheduler's scan watermark is un-armed.
func (sm *SM) wakeAt(slot int32, wake uint64) {
	s := int(sm.slotSched[slot])
	sm.ageWake[s*sm.maxSlots+int(sm.agePos[slot])] = wake
	sm.scanAt[s] = 0
	sm.idleUntil = 0
}

func (sm *SM) clearSchedState() {
	for i := range sm.ageLen {
		sm.ageLen[i] = 0
	}
	for i := range sm.scanAt {
		sm.scanAt[i] = 0
	}
	sm.idleUntil = 0
}

// ID returns the SM index.
func (sm *SM) ID() int { return int(sm.id) }

// App returns the current owner, or NoApp.
func (sm *SM) App() int16 { return sm.app }

// L1 exposes the data cache (read-only use: stats, tests).
func (sm *SM) L1() *cache.Cache { return sm.l1 }

// ResidentCTAs returns the number of active thread blocks.
func (sm *SM) ResidentCTAs() int { return sm.residentCTAs }

// Idle reports whether the SM has no resident work.
func (sm *SM) Idle() bool { return sm.residentCTAs == 0 }

// Draining reports whether an ownership transfer is pending.
func (sm *SM) Draining() bool { return sm.pendingApp != NoApp }

// Assign makes app the immediate owner. The SM must be idle.
func (sm *SM) Assign(app int16, k *kernel.Kernel, st *stats.App) error {
	if !sm.Idle() {
		return fmt.Errorf("smcore: assign on busy SM %d", sm.id)
	}
	if sm.OnOwnerChange != nil && sm.app != app {
		sm.OnOwnerChange(sm.app, app)
	}
	sm.app = app
	sm.kern = k
	sm.appStats = st
	sm.pendingApp = NoApp
	sm.pendingKernel = nil
	sm.pendingStats = nil
	if k != nil {
		sm.maxCTAs = k.MaxCTAsPerSM(sm.cfg)
	} else {
		sm.maxCTAs = 0
	}
	sm.l1.InvalidateAll()
	sm.clearSchedState()
	return nil
}

// RequestReassign schedules a drain-then-transfer to app. New CTAs stop
// launching immediately; the switch happens when the last resident CTA
// retires. Passing the current owner cancels a pending transfer.
func (sm *SM) RequestReassign(app int16, k *kernel.Kernel, st *stats.App) {
	if app == sm.app {
		sm.pendingApp = NoApp
		sm.pendingKernel = nil
		sm.pendingStats = nil
		return
	}
	if sm.Idle() {
		// Nothing to drain; switch now.
		_ = sm.Assign(app, k, st)
		return
	}
	sm.pendingApp = app
	sm.pendingKernel = k
	sm.pendingStats = st
}

// CanLaunch reports whether a new CTA of the current kernel could be
// accepted this cycle.
func (sm *SM) CanLaunch() bool {
	if sm.app == NoApp || sm.kern == nil || sm.Draining() {
		return false
	}
	if sm.residentCTAs >= sm.maxCTAs {
		return false
	}
	return sm.freeWarpSlots() >= sm.kern.WarpsPerCTA
}

func (sm *SM) freeWarpSlots() int { return len(sm.warps) - sm.activeWarps }

// LaunchCTA installs thread block ctaID of the current kernel. The
// caller must have checked CanLaunch.
func (sm *SM) LaunchCTA(ctaID int, now uint64) error {
	if !sm.CanLaunch() {
		return fmt.Errorf("smcore: launch on SM %d without capacity", sm.id)
	}
	slot := -1
	for i := range sm.ctas {
		if !sm.ctas[i].active {
			slot = i
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("smcore: no CTA slot on SM %d", sm.id)
	}
	c := &sm.ctas[slot]
	c.active = true
	c.warpsLeft = int32(sm.kern.WarpsPerCTA)
	c.arrived = 0
	c.warpSlots = c.warpSlots[:0]
	launched := 0
	for i := range sm.warps {
		if launched == sm.kern.WarpsPerCTA {
			break
		}
		w := &sm.warps[i]
		if w.active {
			continue
		}
		buf := w.cachedLines // keep the replay buffer across reuse
		globalID := ctaID*sm.kern.WarpsPerCTA + launched
		*w = warp{
			active:       true,
			ctaSlot:      int32(slot),
			globalID:     int32(globalID),
			blockedUntil: now + 1,
			cachedLines:  buf[:0],
			opRow:        sm.kern.OpsRow(globalID),
		}
		c.warpSlots = append(c.warpSlots, int32(i))
		sm.agePush(int32(i), now+1)
		launched++
	}
	sm.activeWarps += launched
	sm.residentCTAs++
	return nil
}

// OutPending returns the occupancy of the memory output queue.
func (sm *SM) OutPending() int { return sm.out.Len() }

// PeekOut returns the oldest outgoing memory request without removing it.
func (sm *SM) PeekOut() (memreq.Request, bool) {
	if p := sm.out.Peek(); p != nil {
		return *p, true
	}
	return memreq.Request{}, false
}

// PopOut removes the oldest outgoing memory request. Callers peek first,
// attempt injection into the interconnect, and pop only on success.
func (sm *SM) PopOut() {
	if sm.out.Len() > 0 {
		sm.out.Pop()
	}
}
