package sched

import (
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/stats"
)

// SMRAConfig parameterizes Algorithm 1 (dynamic SM allocation).
type SMRAConfig struct {
	// TCCycles is the evaluation period (TC in the paper).
	TCCycles uint64
	// IPCThrPerSM scores an application when its per-owned-SM thread
	// IPC falls below this value (IPCthr).
	IPCThrPerSM float64
	// BWThrFraction scores an application when its share of peak DRAM
	// bandwidth exceeds this fraction (BWthr).
	BWThrFraction float64
	// MoveSMs is the number of SMs transferred per decision (nr).
	MoveSMs int
	// MinSMs is the floor below which an application cannot be
	// deallocated (Rmin).
	MinSMs int
}

// DefaultSMRAConfig returns the parameters used in the evaluation.
func DefaultSMRAConfig(cfg config.GPUConfig) SMRAConfig {
	return SMRAConfig{
		TCCycles:      4000,
		IPCThrPerSM:   float64(cfg.SchedulersPerSM*cfg.WarpSize) * 0.25,
		BWThrFraction: 0.5,
		MoveSMs:       2,
		MinSMs:        4,
	}
}

// smraController implements Algorithm 1 against a running device: every
// TC cycles it scores each live application from its windowed IPC and
// bandwidth utilization, moves nr SMs from the highest-scoring (most
// destructive) application to the lowest-scoring one, and reverts the
// move if device throughput drops in the following window. SMs of
// finished applications are recycled to the remaining ones immediately.
type smraController struct {
	d       *gpu.Device
	handles []gpu.AppHandle
	cfg     SMRAConfig

	lastEval   uint64
	prevWindow []stats.App
	prevInstr  uint64
	prevTput   float64
	havePrev   bool

	// lastMove remembers the most recent transfer for reversion.
	lastMoveFrom gpu.AppHandle
	lastMoveTo   gpu.AppHandle
	lastMoveSMs  []int
	moved        bool

	// recycled[i] records that handles[i] finished and gave up its SMs.
	recycled []bool
	moves    int
}

func newSMRAController(d *gpu.Device, handles []gpu.AppHandle, cfg SMRAConfig) *smraController {
	c := &smraController{d: d, handles: handles, cfg: cfg, recycled: make([]bool, len(handles))}
	c.prevWindow = make([]stats.App, len(handles))
	return c
}

// Moves returns the number of SM transfers performed.
func (c *smraController) Moves() int { return c.moves }

// Tick must be called after every device step.
//
//simlint:hotpath
func (c *smraController) Tick() {
	c.recycleFinished()
	now := c.d.Cycle()
	if now-c.lastEval < c.cfg.TCCycles {
		return
	}
	c.lastEval = now
	c.evaluate()
}

// recycleFinished hands the SMs of completed applications to the live
// application with the fewest cores.
func (c *smraController) recycleFinished() {
	for i, h := range c.handles {
		if c.recycled[i] || !c.d.Done(h) {
			continue
		}
		c.recycled[i] = true
		target, ok := c.smallestLive()
		if !ok {
			continue
		}
		for _, sm := range c.d.SMsOwnedBy(h) {
			_ = c.d.ReassignSM(sm, target)
			c.moves++
		}
	}
}

func (c *smraController) smallestLive() (gpu.AppHandle, bool) {
	best := gpu.AppHandle(-1)
	bestN := int(^uint(0) >> 1)
	for _, h := range c.handles {
		if c.d.Done(h) {
			continue
		}
		n := len(c.d.SMsOwnedBy(h))
		if n < bestN {
			best, bestN = h, n
		}
	}
	return best, best >= 0
}

// evaluate performs one Algorithm 1 step over the last window.
func (c *smraController) evaluate() {
	live := make([]gpu.AppHandle, 0, len(c.handles))
	for _, h := range c.handles {
		if !c.d.Done(h) {
			live = append(live, h)
		}
	}
	if len(live) < 2 {
		return
	}
	// Windowed device throughput.
	var totalInstr uint64
	cur := make([]stats.App, len(c.handles))
	for i, h := range c.handles {
		cur[i] = c.d.AppStats(h)
		totalInstr += cur[i].ThreadInstructions
	}
	windowInstr := totalInstr - c.prevInstr
	tput := float64(windowInstr) / float64(c.cfg.TCCycles)

	if c.moved && c.havePrev && tput < c.prevTput {
		// The previous move hurt device throughput: restore the donor's
		// cores (Algorithm 1's T > Tp guard).
		for _, sm := range c.lastMoveSMs {
			_ = c.d.ReassignSM(sm, c.lastMoveFrom)
			c.moves++
		}
		c.moved = false
	} else {
		c.tryMove(live, cur)
	}

	c.prevInstr = totalInstr
	c.prevTput = tput
	c.havePrev = true
	copy(c.prevWindow, cur)
}

// tryMove scores the live applications and transfers MoveSMs cores from
// the worst-scoring to the best-scoring one.
func (c *smraController) tryMove(live []gpu.AppHandle, cur []stats.App) {
	peakBW := peakDRAMBytesPerCycle(c.d.Config())
	scores := make(map[gpu.AppHandle]int, len(live))
	for _, h := range live {
		prev := c.prevWindow[h]
		d := cur[h]
		instr := d.ThreadInstructions - prev.ThreadInstructions
		bytes := d.DRAMBytes - prev.DRAMBytes
		smCount := len(c.d.SMsOwnedBy(h))
		if smCount == 0 {
			continue
		}
		ipcPerSM := float64(instr) / float64(c.cfg.TCCycles) / float64(smCount)
		bwFrac := float64(bytes) / float64(c.cfg.TCCycles) / peakBW
		v := 0
		if ipcPerSM < c.cfg.IPCThrPerSM {
			v++
		}
		if bwFrac > c.cfg.BWThrFraction {
			v += 2
		}
		scores[h] = v
	}
	donor, receiver := gpu.AppHandle(-1), gpu.AppHandle(-1)
	for _, h := range live {
		if donor < 0 || scores[h] > scores[donor] {
			donor = h
		}
		if receiver < 0 || scores[h] < scores[receiver] {
			receiver = h
		}
	}
	if donor == receiver || scores[donor] == scores[receiver] {
		c.moved = false
		return
	}
	donorSMs := c.d.SMsOwnedBy(donor)
	if len(donorSMs)-c.cfg.MoveSMs < c.cfg.MinSMs {
		c.moved = false
		return
	}
	moved := donorSMs[len(donorSMs)-c.cfg.MoveSMs:]
	for _, sm := range moved {
		_ = c.d.ReassignSM(sm, receiver)
	}
	c.moves += len(moved)
	c.lastMoveFrom, c.lastMoveTo = donor, receiver
	c.lastMoveSMs = append([]int(nil), moved...)
	c.moved = true
}

// peakDRAMBytesPerCycle returns the device's aggregate DRAM data-bus
// capacity in bytes per core cycle.
func peakDRAMBytesPerCycle(cfg config.GPUConfig) float64 {
	return float64(cfg.NumMemPartitions) * float64(cfg.L2.LineBytes) / float64(cfg.DRAM.BurstCycles)
}
