package smcore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/kernel"
	"repro/internal/memreq"
	"repro/internal/stats"
)

func testCfg() config.GPUConfig {
	cfg := config.Small()
	cfg.MaxWarpsPerSM = 8
	cfg.MaxBlocksPerSM = 4
	return cfg
}

func computeParams(ctas, warps, instrs int) kernel.Params {
	return kernel.Params{
		Name: "cmp", CTAs: ctas, WarpsPerCTA: warps, InstrsPerWarp: instrs, Seed: 1,
	}
}

func memParams(ctas, warps, instrs int) kernel.Params {
	return kernel.Params{
		Name: "mem", CTAs: ctas, WarpsPerCTA: warps, InstrsPerWarp: instrs,
		MemEvery: 3, Pattern: kernel.PatternStream, CoalescedLines: 2,
		FootprintBytes: 1 << 20, Seed: 2,
	}
}

func newSM(t *testing.T, params kernel.Params) (*SM, *stats.App, *kernel.Kernel) {
	t.Helper()
	return newSMOn(t, testCfg(), params)
}

// newSMOn builds an SM on cfg and assigns it a kernel of params.
func newSMOn(t *testing.T, cfg config.GPUConfig, params kernel.Params) (*SM, *stats.App, *kernel.Kernel) {
	t.Helper()
	sm, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(params, cfg.L1.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.App{Name: params.Name}
	if err := sm.Assign(0, k, st); err != nil {
		t.Fatal(err)
	}
	return sm, st, k
}

// runCompute drives a pure-compute SM to completion.
func runCompute(t *testing.T, sm *SM, k *kernel.Kernel, maxCycles int) uint64 {
	t.Helper()
	next := 0
	var now uint64
	for cycle := 0; cycle < maxCycles; cycle++ {
		now++
		if next < k.CTAs && sm.CanLaunch() {
			if err := sm.LaunchCTA(next, now); err != nil {
				t.Fatal(err)
			}
			next++
		}
		sm.Tick(now)
		if next == k.CTAs && sm.Idle() {
			return now
		}
	}
	t.Fatalf("SM did not finish in %d cycles (resident=%d)", maxCycles, sm.ResidentCTAs())
	return 0
}

func TestComputeKernelRetiresAllInstructions(t *testing.T) {
	params := computeParams(6, 2, 50)
	sm, st, k := newSM(t, params)
	runCompute(t, sm, k, 100000)
	want := uint64(params.CTAs * params.WarpsPerCTA * params.InstrsPerWarp)
	if st.WarpInstructions != want {
		t.Fatalf("warp instructions = %d, want %d", st.WarpInstructions, want)
	}
	if st.ThreadInstructions != want*uint64(testCfg().WarpSize) {
		t.Fatalf("thread instructions = %d", st.ThreadInstructions)
	}
}

// TestZeroLatencyComputeRetires runs compute ops whose functional-unit
// latencies are zero. New does not validate its configuration, so such
// an op must still retire and leave its warp issuable.
func TestZeroLatencyComputeRetires(t *testing.T) {
	cfg := testCfg()
	cfg.ALULatency, cfg.SFULatency, cfg.SharedLatency = 0, 0, 0
	params := computeParams(4, 2, 50)
	params.SFUFraction = 0.3
	params.SharedFraction = 0.2
	sm, st, k := newSMOn(t, cfg, params)
	runCompute(t, sm, k, 100000)
	want := uint64(params.CTAs * params.WarpsPerCTA * params.InstrsPerWarp)
	if st.WarpInstructions != want {
		t.Fatalf("warp instructions = %d, want %d", st.WarpInstructions, want)
	}
}

func TestOccupancyLimitsRespected(t *testing.T) {
	params := computeParams(100, 2, 2000)
	sm, _, k := newSM(t, params)
	cfg := testCfg()
	next := 0
	var now uint64
	maxResident := 0
	for cycle := 0; cycle < 3000; cycle++ {
		now++
		if next < k.CTAs && sm.CanLaunch() {
			_ = sm.LaunchCTA(next, now)
			next++
		}
		sm.Tick(now)
		if sm.ResidentCTAs() > maxResident {
			maxResident = sm.ResidentCTAs()
		}
	}
	if maxResident > cfg.MaxBlocksPerSM {
		t.Fatalf("resident CTAs peaked at %d > limit %d", maxResident, cfg.MaxBlocksPerSM)
	}
	if maxResident != cfg.MaxBlocksPerSM {
		t.Fatalf("occupancy never reached the block limit (peak %d)", maxResident)
	}
}

func TestBarrierSynchronizesBlock(t *testing.T) {
	params := computeParams(1, 4, 40)
	params.BarrierEvery = 10
	sm, st, k := newSM(t, params)
	runCompute(t, sm, k, 100000)
	want := uint64(params.CTAs * params.WarpsPerCTA * params.InstrsPerWarp)
	if st.WarpInstructions != want {
		t.Fatalf("with barriers: %d instructions, want %d", st.WarpInstructions, want)
	}
}

func TestMemoryKernelEmitsRequestsAndBlocks(t *testing.T) {
	params := memParams(2, 2, 30)
	sm, _, k := newSM(t, params)
	var now uint64
	launched := 0
	var outbound []memreq.Request
	for cycle := 0; cycle < 2000 && !sm.Idle() || launched == 0; cycle++ {
		now++
		if launched < k.CTAs && sm.CanLaunch() {
			_ = sm.LaunchCTA(launched, now)
			launched++
		}
		sm.Tick(now)
		for {
			req, ok := sm.PeekOut()
			if !ok {
				break
			}
			sm.PopOut()
			outbound = append(outbound, req)
			if req.Kind == memreq.Read {
				// Answer immediately: fill the line.
				sm.HandleResponse(memreq.Request{Kind: memreq.ReadReply, Line: req.Line, App: req.App, Size: 128})
			}
		}
		if launched == k.CTAs && sm.Idle() {
			break
		}
	}
	if !sm.Idle() {
		t.Fatal("memory kernel did not finish with instant responses")
	}
	reads, writes := 0, 0
	for _, r := range outbound {
		switch r.Kind {
		case memreq.Read:
			reads++
		case memreq.Write:
			writes++
		}
	}
	if reads == 0 {
		t.Fatal("no read requests emitted")
	}
	if writes != 0 {
		t.Fatal("unexpected writes from a load-only kernel")
	}
}

func TestDrainThenTransfer(t *testing.T) {
	paramsA := computeParams(8, 2, 400)
	sm, _, kA := newSM(t, paramsA)
	cfg := testCfg()
	kB, err := kernel.New(computeParams(4, 2, 100), cfg.L1.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	stB := &stats.App{Name: "B"}
	var now uint64
	next := 0
	// Warm up with a few CTAs of app A.
	for cycle := 0; cycle < 50; cycle++ {
		now++
		if next < kA.CTAs && sm.CanLaunch() {
			_ = sm.LaunchCTA(next, now)
			next++
		}
		sm.Tick(now)
	}
	if sm.Idle() {
		t.Fatal("SM idle during warm-up")
	}
	sm.RequestReassign(1, kB, stB)
	if !sm.Draining() {
		t.Fatal("not draining after reassign request")
	}
	if sm.CanLaunch() {
		t.Fatal("draining SM accepted new blocks")
	}
	// Run until the transfer happens.
	for cycle := 0; cycle < 100000 && sm.App() != 1; cycle++ {
		now++
		sm.Tick(now)
	}
	if sm.App() != 1 {
		t.Fatal("ownership never transferred")
	}
	if !sm.Idle() {
		t.Fatal("new owner should start idle")
	}
	if sm.Draining() {
		t.Fatal("still draining after transfer")
	}
	// New owner's blocks launch and run.
	next = 0
	for cycle := 0; cycle < 100000; cycle++ {
		now++
		if next < kB.CTAs && sm.CanLaunch() {
			_ = sm.LaunchCTA(next, now)
			next++
		}
		sm.Tick(now)
		if next == kB.CTAs && sm.Idle() {
			break
		}
	}
	want := uint64(4 * 2 * 100)
	if stB.WarpInstructions != want {
		t.Fatalf("app B instructions = %d, want %d", stB.WarpInstructions, want)
	}
}

func TestReassignToSelfCancelsDrain(t *testing.T) {
	params := computeParams(8, 2, 400)
	sm, st, k := newSM(t, params)
	var now uint64
	_ = sm.LaunchCTA(0, now)
	sm.RequestReassign(1, k, st)
	if !sm.Draining() {
		t.Fatal("expected draining")
	}
	sm.RequestReassign(0, k, st)
	if sm.Draining() {
		t.Fatal("reassign-to-self did not cancel the drain")
	}
}

func TestOnCTADoneCallback(t *testing.T) {
	params := computeParams(3, 2, 30)
	sm, _, k := newSM(t, params)
	done := 0
	sm.OnCTADone = func(app int16) {
		if app != 0 {
			t.Fatalf("callback app = %d", app)
		}
		done++
	}
	runCompute(t, sm, k, 100000)
	if done != params.CTAs {
		t.Fatalf("OnCTADone fired %d times, want %d", done, params.CTAs)
	}
}

// gtoTally counts the scheduling situations a checked run went through,
// so a test can tell a run that exercised the GTO rule from one that
// merely never contradicted it.
type gtoTally struct {
	contended int // scheduler-cycles with two or more ready warps
	overtook  int // issues by a warp younger than a blocked warp of its scheduler
	heldBack  int // structural stalls of the oldest ready warp while a younger one was ready
	retries   int // stalls of a warp exactly replayPenalty cycles after its last one
}

// tickGTO runs one Tick and checks it against greedy-then-oldest: a
// scheduler owns the warp slots of one parity (slot % SchedulersPerSM)
// and tries only its oldest ready warp. That warp either issues (its
// PC advances or it retires) or fails a structural stall, burning the
// scheduler's slot for the cycle and re-arming itself replayPenalty
// cycles later. No other warp of the scheduler moves. Callers launch
// blocks in ID order, so a smaller kernel-wide warp index (globalID)
// is an older warp. lastStall holds each slot's most recent stall
// cycle.
func tickGTO(t *testing.T, sm *SM, now uint64, lastStall []uint64, tally *gtoTally) {
	t.Helper()
	type snap struct {
		pc     int32
		active bool
	}
	nsched := sm.cfg.SchedulersPerSM
	before := make([]snap, len(sm.warps))
	oldest := make([]int, nsched)
	nready := make([]int, nsched)
	for s := range oldest {
		oldest[s] = -1
	}
	for i := range sm.warps {
		w := &sm.warps[i]
		before[i] = snap{w.pc, w.active}
		ready := w.active && !w.finished && !w.atBarrier && w.pendingLoads == 0 && w.blockedUntil <= now
		if !ready {
			continue
		}
		s := i % nsched
		nready[s]++
		if o := oldest[s]; o < 0 || w.globalID < sm.warps[o].globalID {
			oldest[s] = i
		}
	}
	sm.Tick(now)
	for s := 0; s < nsched; s++ {
		moved := -1
		for i := s; i < len(sm.warps); i += nsched {
			if w := &sm.warps[i]; w.pc != before[i].pc || w.active != before[i].active {
				if moved >= 0 {
					t.Fatalf("cycle %d: scheduler %d issued from slots %d and %d", now, s, moved, i)
				}
				moved = i
			}
		}
		o := oldest[s]
		if nready[s] > 1 {
			tally.contended++
		}
		switch {
		case o < 0:
			if moved >= 0 {
				t.Fatalf("cycle %d: scheduler %d issued from slot %d with no warp ready", now, s, moved)
			}
		case moved == o:
			for i := s; i < len(sm.warps); i += nsched {
				if w := &sm.warps[i]; before[i].active && i != o && w.globalID < sm.warps[o].globalID {
					tally.overtook++
					break
				}
			}
		case moved >= 0:
			t.Fatalf("cycle %d: scheduler %d issued from slot %d, but its oldest ready warp is slot %d",
				now, s, moved, o)
		default:
			if got := sm.warps[o].blockedUntil; got != now+replayPenalty {
				t.Fatalf("cycle %d: scheduler %d issued nothing; its oldest ready slot %d was not stalled (re-armed for %d, want %d)",
					now, s, o, got, now+replayPenalty)
			}
			if nready[s] > 1 {
				tally.heldBack++
			}
			if lastStall[o] != 0 && lastStall[o]+replayPenalty == now {
				tally.retries++
			}
			lastStall[o] = now
		}
	}
}

// TestGTOIssueOrder pins which warp each scheduler issues from, not only
// how many instructions complete. The first run answers loads after a
// delay, so older warps block on fills while younger ones compute; the
// second never drains the output queue, so the oldest warp's load keeps
// failing while younger warps of its scheduler are ready. Neither may
// issue out of age order, and a failed load is retried exactly
// replayPenalty cycles later.
func TestGTOIssueOrder(t *testing.T) {
	t.Run("delayed-fills", func(t *testing.T) {
		params := memParams(8, 2, 60)
		params.StoreFraction = 0.2
		params.SFUFraction = 0.2
		params.SharedFraction = 0.1
		params.BarrierEvery = 12
		sm, st, k := newSM(t, params)
		const fillDelay = 30
		type fill struct {
			due uint64
			req memreq.Request
		}
		var fills []fill
		lastStall := make([]uint64, len(sm.warps))
		var tally gtoTally
		var now uint64
		next := 0
		for next < k.CTAs || !sm.Idle() {
			now++
			if now > 100000 {
				t.Fatalf("SM did not finish (resident=%d)", sm.ResidentCTAs())
			}
			if next < k.CTAs && sm.CanLaunch() {
				if err := sm.LaunchCTA(next, now); err != nil {
					t.Fatal(err)
				}
				next++
			}
			tickGTO(t, sm, now, lastStall, &tally)
			for req, ok := sm.PeekOut(); ok; req, ok = sm.PeekOut() {
				sm.PopOut()
				if req.Kind == memreq.Read {
					fills = append(fills, fill{now + fillDelay, memreq.Request{
						Kind: memreq.ReadReply, Line: req.Line, App: req.App, Size: 128,
					}})
				}
			}
			for len(fills) > 0 && fills[0].due <= now {
				sm.HandleResponse(fills[0].req)
				fills = fills[1:]
			}
		}
		want := uint64(params.CTAs * params.WarpsPerCTA * params.InstrsPerWarp)
		if st.WarpInstructions != want {
			t.Fatalf("warp instructions = %d, want %d", st.WarpInstructions, want)
		}
		if tally.contended == 0 || tally.overtook == 0 {
			t.Fatalf("run never exercised the age order: %+v", tally)
		}
	})
	t.Run("full-output-queue", func(t *testing.T) {
		// A barrier releases every warp of a block in one cycle, and the
		// instruction after it is a load: the oldest warp's load finds
		// the queue full while younger warps are ready beside it.
		params := memParams(2, 4, 60)
		params.BarrierEvery = 4
		params.MemEvery = 5
		params.CoalescedLines = 4
		sm, _, k := newSM(t, params)
		lastStall := make([]uint64, len(sm.warps))
		var tally gtoTally
		var now uint64
		for next := 0; now < 400; {
			now++
			if next < k.CTAs && sm.CanLaunch() {
				if err := sm.LaunchCTA(next, now); err != nil {
					t.Fatal(err)
				}
				next++
			}
			tickGTO(t, sm, now, lastStall, &tally)
		}
		if sm.OutPending() < sm.outLimit-1 {
			t.Fatalf("output queue holds %d of %d: loads never stalled on it", sm.OutPending(), sm.outLimit)
		}
		if tally.heldBack == 0 || tally.retries == 0 {
			t.Fatalf("run never held back a ready warp behind a stalled load: %+v", tally)
		}
	})
}
