package smcore

import (
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/memreq"
	"repro/internal/stats"
)

// Tick advances the SM one core cycle: each warp scheduler issues at
// most one instruction from a ready warp it owns. Scheduler s owns warp
// slots where slot % SchedulersPerSM == s, mirroring the odd/even warp
// split of Fermi's dual schedulers.
//
//simlint:hotpath
func (sm *SM) Tick(now uint64) {
	if now < sm.idleUntil {
		return
	}
	if sm.app == NoApp || sm.kern == nil || sm.residentCTAs == 0 {
		return
	}
	// The oldest ready warp of each scheduler, found by direct scan of
	// the age order. scanAt skips schedulers whose scan would provably
	// fail.
	for s := 0; s < sm.cfg.SchedulersPerSM; s++ {
		if sm.scanAt[s] > now {
			continue
		}
		base := s * sm.maxSlots
		wakes := sm.ageWake[base : base+int(sm.ageLen[s])]
		idx := -1
		for i, wake := range wakes {
			if wake <= now {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Failed scan (the rare transition into idleness): one
			// extra pass arms the watermark with the earliest wake.
			next := uint64(NoEvent)
			for _, wake := range wakes {
				if wake < next {
					next = wake
				}
			}
			sm.scanAt[s] = next
			continue
		}
		slot := sm.ageSlot[base+idx]
		w := &sm.warps[slot]
		// ALU/SFU/shared ops mutate nothing outside the warp, so they
		// retire here off one 2-bit unit code — no instruction struct,
		// no full issue machinery. Everything else (and a stashed
		// replay, which is always a load or a store) goes to issue.
		u := kernel.UnitOther
		if !w.cachedValid {
			if w.opRow != nil {
				u = kernel.RowUnit(w.opRow, int(w.pc))
			} else {
				u = kernel.UnitOf(sm.kern.OpAt(int(w.globalID), int(w.pc)))
			}
		}
		if u == kernel.UnitOther {
			if sm.issue(slot, now) {
				// Refresh the issued warp's age entry with its new wait
				// (NoEvent while an event — fill or barrier release —
				// must wake it). A retired warp's entry is already gone
				// (and the region compacted), so leave it alone; the
				// backing array is stable, making the indexed write safe
				// for a live warp.
				if w.active {
					wake := w.blockedUntil
					if w.atBarrier || w.pendingLoads > 0 {
						wake = NoEvent
					}
					sm.ageWake[base+idx] = wake
				}
			} else {
				// Structural stall (MSHR or output queue full): replay
				// the instruction after a short penalty, like hardware
				// replay queues do. The failed pick still burns the
				// scheduler's issue slot for this cycle.
				w.blockedUntil = now + replayPenalty
				sm.ageWake[base+idx] = now + replayPenalty
			}
			continue
		}
		w.blockedUntil = now + sm.unitLat[u&3]
		w.pc++
		sm.recordIssue(sm.appStats, false)
		sm.ageWake[base+idx] = w.blockedUntil
	}
	// The loop left scanAt[s] exact for every scheduler that did not
	// issue; one that did stays un-armed (≤ now), keeping the SM
	// ticking. Event wake-ups reset idleUntil directly.
	idle := sm.scanAt[0]
	for _, t := range sm.scanAt[1:] {
		if t < idle {
			idle = t
		}
	}
	sm.idleUntil = idle
}

// replayPenalty is the re-issue delay after a structural stall.
const replayPenalty = 4

// stashReplay saves a decoded instruction so its replay skips fetch and
// address generation.
func (sm *SM) stashReplay(w *warp, in isa.Instr) {
	if w.cachedValid {
		return // already replaying this instruction
	}
	w.cachedOp = in.Op
	w.cachedLines = append(w.cachedLines[:0], in.Lines...)
	w.cachedValid = true
}

// issue executes a load, store, barrier or exit for the warp in slot
// (Tick retires compute ops itself). It returns false on a structural
// stall, leaving all state unchanged so the instruction retries later.
// On success the warp's new state says what it waits on: a fixed
// latency (blockedUntil), load fills, a barrier release, or nothing
// once it retires.
func (sm *SM) issue(slot int32, now uint64) bool {
	w := &sm.warps[slot]
	// Snapshot the owner's counters: retiring the last warp can complete
	// a drain-then-transfer inside the switch below, and the issued
	// instruction belongs to the old owner.
	issuedFor := sm.appStats
	var in isa.Instr
	if w.cachedValid {
		in = isa.Instr{Op: w.cachedOp, Lines: w.cachedLines}
	} else {
		in = sm.kern.Fetch(int(w.globalID), int(w.pc), sm.lineBuf)
	}
	switch in.Op {
	case isa.OpLoad:
		if !sm.issueLoad(slot, in.Lines, now) {
			sm.stashReplay(w, in)
			return false
		}
	case isa.OpStore:
		if !sm.issueStore(slot, in.Lines, now) {
			sm.stashReplay(w, in)
			return false
		}
	case isa.OpBarrier:
		sm.issueBarrier(slot, now)
	case isa.OpExit:
		sm.retireWarp(slot)
	}
	w.cachedValid = false
	sm.recordIssue(issuedFor, in.Op.IsMemory())
	return true
}

func (sm *SM) recordIssue(st *stats.App, mem bool) {
	if st == nil {
		return
	}
	st.WarpInstructions++
	st.ThreadInstructions += uint64(sm.cfg.WarpSize)
	if mem {
		st.MemWarpInstructions++
	}
}

// issueLoad performs the L1 lookups for every coalesced line of a load.
// All-or-nothing: capacity (MSHR entries, merge slots, output queue) is
// verified before any state changes. Every false return is such a
// stall, so the checks may run in any order: the room for new misses is
// computed first, a replay whose L1 epoch has not moved and whose room
// has not grown since its last stall fails without probing, and the
// probe loop bails as soon as the room is exceeded.
//
//simlint:hotpath
func (sm *SM) issueLoad(slot int32, lines []uint64, now uint64) bool {
	room := sm.l1.MSHRFree()
	if out := sm.outLimit - sm.OutPending(); out < room {
		room = out
	}
	w := &sm.warps[slot]
	epoch := sm.l1.Epoch()
	if w.stalled && w.stallEpoch == epoch && room <= int(w.stallRoom) {
		return false
	}
	if !sm.loadFits(lines, room) {
		w.stalled, w.stallEpoch, w.stallRoom = true, epoch, int32(room)
		return false
	}
	w.stalled = false
	waits := int32(0)
	for _, ln := range lines {
		res := sm.l1.Access(ln, false, uint64(slot), sm.app)
		if sm.appStats != nil {
			sm.appStats.L1Accesses++
			if res == cache.Hit {
				sm.appStats.L1Hits++
			}
		}
		switch res {
		case cache.Miss:
			waits++
			sm.out.Push(memreq.Request{
				Kind: memreq.Read,
				Line: ln,
				App:  sm.app,
				SM:   sm.id,
				Warp: slot,
				Size: memreq.ControlBytes,
			})
		case cache.MissMerged:
			waits++
		}
	}
	w.pendingLoads += waits
	if waits == 0 {
		w.blockedUntil = now + uint64(sm.cfg.L1.LatencyCycles) + 1
	}
	w.pc++
	return true
}

// loadFits reports whether a load's lines can all be accessed now: each
// is resident, mergeable into an outstanding miss, or one of at most
// room new misses.
//
//simlint:hotpath
func (sm *SM) loadFits(lines []uint64, room int) bool {
	newMisses := 0
	for _, ln := range lines {
		if sm.l1.ProbeMiss(ln) {
			if newMisses++; newMisses > room {
				return false
			}
		} else if !sm.l1.CanMerge(ln) {
			return false
		}
	}
	return true
}

// issueStore forwards write-through stores downstream without blocking
// the warp.
func (sm *SM) issueStore(slot int32, lines []uint64, now uint64) bool {
	if sm.outLimit-sm.OutPending() < len(lines) {
		return false
	}
	w := &sm.warps[slot]
	for _, ln := range lines {
		res := sm.l1.Access(ln, true, uint64(slot), sm.app)
		if sm.appStats != nil {
			sm.appStats.L1Accesses++
			if res == cache.Hit {
				sm.appStats.L1Hits++
			}
		}
		sm.out.Push(memreq.Request{
			Kind: memreq.Write,
			Line: ln,
			App:  sm.app,
			SM:   sm.id,
			Warp: slot,
			Size: int32(sm.cfg.L1.LineBytes),
		})
	}
	w.blockedUntil = now + 1
	w.pc++
	return true
}

func (sm *SM) issueBarrier(slot int32, now uint64) {
	w := &sm.warps[slot]
	c := &sm.ctas[w.ctaSlot]
	w.pc++
	w.atBarrier = true
	c.arrived++
	if c.arrived >= c.warpsLeft {
		// Synthetic programs are barrier-uniform: every live warp of the
		// block reaches the same barrier, so arrival of the last live
		// warp releases the block.
		for _, ws := range c.warpSlots {
			rw := &sm.warps[ws]
			if rw.active && !rw.finished && rw.atBarrier {
				rw.atBarrier = false
				rw.blockedUntil = now + 1
				// Released warps never issue in their release cycle.
				sm.wakeAt(ws, now+1)
			}
		}
		c.arrived = 0
	}
	w.blockedUntil = now + 1
}

func (sm *SM) retireWarp(slot int32) {
	w := &sm.warps[slot]
	w.finished = true
	w.active = false
	sm.activeWarps--
	sm.ageRemove(slot)
	c := &sm.ctas[w.ctaSlot]
	c.warpsLeft--
	if c.warpsLeft > 0 {
		return
	}
	// Thread block complete.
	c.active = false
	sm.residentCTAs--
	doneApp := sm.app
	if sm.OnCTADone != nil {
		sm.OnCTADone(doneApp)
	}
	if sm.residentCTAs == 0 && sm.pendingApp != NoApp {
		app, k, st := sm.pendingApp, sm.pendingKernel, sm.pendingStats
		sm.pendingApp = NoApp
		sm.pendingKernel = nil
		sm.pendingStats = nil
		_ = sm.Assign(app, k, st)
	}
}

// HandleResponse completes a read fill that arrived from the
// interconnect: the line is installed in the L1 and every warp recorded
// in the MSHR entry is woken.
func (sm *SM) HandleResponse(req memreq.Request) {
	waiters, _, _ := sm.l1.Fill(req.Line, req.App, false)
	for _, tok := range waiters {
		w := &sm.warps[tok]
		if w.pendingLoads > 0 {
			w.pendingLoads--
			if w.pendingLoads == 0 && w.active && !w.finished && !w.atBarrier {
				sm.wakeAt(int32(tok), w.blockedUntil)
			}
		}
	}
}
