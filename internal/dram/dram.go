// Package dram models one memory partition's DRAM controller and
// devices: a bounded request queue, per-bank row buffers, a shared data
// bus, and two scheduling disciplines — FR-FCFS (first-ready FCFS, the
// GPGPU-Sim default that prioritizes row-buffer hits) and plain FCFS.
//
// FR-FCFS is the mechanism the paper singles out (Section 3.2.2): it
// favours streaming, row-local traffic, which is why class M
// applications both achieve high bandwidth and impose large slowdowns on
// everything they co-run with.
package dram

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/memreq"
)

type bank struct {
	openRow   uint64
	hasOpen   bool
	busyUntil uint64
}

// queued is one waiting request with its (bank, row) decoded once, at
// enqueue time, so the per-tick scheduler scans compare stored fields.
type queued struct {
	req  memreq.Request
	row  uint64
	bank int
}

// reqQueue is one FIFO of waiting requests plus, per bank, the count of
// entries targeting it. The counts let the scheduler prove "no bank with
// work is ready" and find the earliest bank release in O(banks) instead
// of O(queue).
type reqQueue struct {
	q       []queued
	perBank []int32
}

func (rq *reqQueue) push(e queued) {
	rq.q = append(rq.q, e)
	rq.perBank[e.bank]++
}

// take removes and returns entry idx, preserving arrival order.
func (rq *reqQueue) take(idx int) queued {
	e := rq.q[idx]
	rq.q = append(rq.q[:idx], rq.q[idx+1:]...)
	rq.perBank[e.bank]--
	return e
}

type inflight struct {
	req  memreq.Request
	done uint64
}

// Stats counts controller events.
type Stats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	BusyCycles uint64 // cycles the data bus was transferring
}

// Controller is one partition's memory controller. It is driven by
// Tick once per core cycle.
type Controller struct {
	cfg       config.DRAMConfig
	lineBytes int
	banks     []bank
	// queue holds reads; writes buffer separately and drain when the
	// read queue is empty or the write buffer passes its high watermark,
	// as real GPU memory controllers do. Read requests therefore do not
	// sit behind store bursts.
	queue      reqQueue
	writeQ     reqQueue
	writeDrain bool
	inflight   []inflight
	busBusy    uint64
	stats      Stats
	// doneBuf backs Tick's completed-request return value so steady-state
	// ticking performs no allocations.
	doneBuf []memreq.Request
	// lastNow is the cycle of the last Tick. Callers may skip ticks
	// whose timing NextEvent proves irrelevant; the next Tick accounts
	// for the gap's bus-busy cycles arithmetically (busBusy is constant
	// across unticked cycles — nothing was scheduled or retired).
	lastNow uint64
	// perApp accumulates data-bus bytes per application index; it grows
	// on demand and ignores unattributed (negative) owners.
	perApp []uint64
}

// New builds a controller for one partition.
func New(cfg config.DRAMConfig, lineBytes int) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lineBytes <= 0 {
		return nil, fmt.Errorf("dram: line size must be positive (got %d)", lineBytes)
	}
	return &Controller{
		cfg:       cfg,
		lineBytes: lineBytes,
		banks:     make([]bank, cfg.Banks),
		queue:     reqQueue{perBank: make([]int32, cfg.Banks)},
		writeQ:    reqQueue{perBank: make([]int32, cfg.Banks)},
	}, nil
}

// MustNew is New panicking on error, for tables and tests.
func MustNew(cfg config.DRAMConfig, lineBytes int) *Controller {
	c, err := New(cfg, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a snapshot of the event counters.
func (c *Controller) Stats() Stats { return c.stats }

// AppBytes returns data-bus bytes transferred on behalf of app.
func (c *Controller) AppBytes(app int16) uint64 {
	if app < 0 || int(app) >= len(c.perApp) {
		return 0
	}
	return c.perApp[app]
}

func (c *Controller) chargeApp(app int16, bytes uint64) {
	if app < 0 {
		return
	}
	for int(app) >= len(c.perApp) {
		c.perApp = append(c.perApp, 0)
	}
	c.perApp[app] += bytes
}

// QueueLen returns the number of waiting (unscheduled) requests.
func (c *Controller) QueueLen() int { return len(c.queue.q) + len(c.writeQ.q) }

// CanAccept reports whether Enqueue would succeed for either kind.
func (c *Controller) CanAccept() bool {
	return len(c.queue.q) < c.cfg.QueueSize && len(c.writeQ.q) < 2*c.cfg.QueueSize
}

// Enqueue adds a request to the controller. It returns false when the
// corresponding queue is full (backpressure), in which case the caller
// retries.
func (c *Controller) Enqueue(req memreq.Request, now uint64) bool {
	if req.Kind == memreq.Write {
		if len(c.writeQ.q) >= 2*c.cfg.QueueSize {
			return false
		}
	} else if len(c.queue.q) >= c.cfg.QueueSize {
		return false
	}
	c.EnqueueForced(req, now)
	return true
}

// EnqueueForced adds a request even when its queue is over the limit.
// Used only for write-backs evicted by fills, which cannot be refused
// without deadlock; the overflow is bounded by L2 associativity.
func (c *Controller) EnqueueForced(req memreq.Request, _ uint64) {
	b, row := c.bankAndRow(req.Line)
	e := queued{req: req, row: row, bank: b}
	if req.Kind == memreq.Write {
		c.writeQ.push(e)
		return
	}
	c.queue.push(e)
}

// bankAndRow is the single address decoder; it runs once per request,
// at enqueue. It decomposes a line address: consecutive rows interleave
// across banks, and the bank index is swizzled with higher-order row
// bits (as real controllers do) so power-of-two strided streams spread
// across banks instead of camping on one.
func (c *Controller) bankAndRow(line uint64) (int, uint64) {
	rowID := line / uint64(c.cfg.RowBytes)
	banks := uint64(c.cfg.Banks)
	row := rowID / banks
	bank := (rowID ^ row ^ (row >> 3)) % banks
	return int(bank), row
}

// Tick advances one core cycle: possibly schedules one queued request
// and returns the read requests whose data transfer completed this
// cycle (writes complete silently). The returned slice is reused by the
// next Tick; callers consume it before ticking again.
//
//simlint:hotpath
func (c *Controller) Tick(now uint64) []memreq.Request {
	if now > c.lastNow+1 && c.busBusy > c.lastNow+1 {
		// Catch up the bus-busy counter over skipped cycles (lastNow+1
		// through now-1, each of which saw the same busBusy value this
		// Tick still sees — nothing was scheduled or retired meanwhile).
		hi := now - 1
		if c.busBusy-1 < hi {
			hi = c.busBusy - 1
		}
		c.stats.BusyCycles += hi - c.lastNow
	}
	c.lastNow = now
	c.doneBuf = c.doneBuf[:0]
	for i := 0; i < len(c.inflight); {
		if c.inflight[i].done <= now {
			if c.inflight[i].req.Kind == memreq.Read {
				c.doneBuf = append(c.doneBuf, c.inflight[i].req)
			}
			c.inflight[i] = c.inflight[len(c.inflight)-1]
			c.inflight = c.inflight[:len(c.inflight)-1]
		} else {
			i++
		}
	}
	if c.busBusy > now {
		c.stats.BusyCycles++
	}
	// One command per cycle may be scheduled; bank busy windows
	// serialize per-bank access while the shared data bus is reserved
	// burst-by-burst, so independent banks overlap their latencies.
	//
	// Reads are served ahead of buffered writes; the write buffer drains
	// in bursts once it passes its high watermark or when no read is
	// serviceable (write-drain hysteresis).
	if !c.writeDrain && len(c.writeQ.q) >= 3*c.cfg.QueueSize/2 {
		c.writeDrain = true
	}
	if c.writeDrain && len(c.writeQ.q) <= c.cfg.QueueSize/4 {
		c.writeDrain = false
	}
	if !c.writeDrain {
		if idx := c.pick(&c.queue, now); idx >= 0 {
			c.service(c.queue.take(idx), now)
			return c.doneBuf
		}
	}
	if idx := c.pick(&c.writeQ, now); idx >= 0 {
		c.service(c.writeQ.take(idx), now)
	} else if c.writeDrain {
		// No serviceable write this cycle: let reads through anyway.
		if idx := c.pick(&c.queue, now); idx >= 0 {
			c.service(c.queue.take(idx), now)
		}
	}
	return c.doneBuf
}

// pick selects the next request index to service from rq, or -1.
//
// FR-FCFS: the oldest request that hits an open row in a ready bank; if
// none, the oldest request whose bank is ready. FCFS: the head request,
// only if its bank is ready (head-of-line blocking is the point).
//
//simlint:hotpath
func (c *Controller) pick(rq *reqQueue, now uint64) int {
	q := rq.q
	if len(q) == 0 {
		return -1
	}
	if c.cfg.Sched == config.MemFCFS {
		if c.banks[q[0].bank].busyUntil <= now {
			return 0
		}
		return -1
	}
	// Saturated controllers spend most ticks with every requested bank
	// busy; the per-bank counts prove that without touching the queue.
	ready := false
	for b, n := range rq.perBank {
		if n > 0 && c.banks[b].busyUntil <= now {
			ready = true
			break
		}
	}
	if !ready {
		return -1
	}
	firstReady := -1
	for i := range q {
		bk := &c.banks[q[i].bank]
		if bk.busyUntil > now {
			continue
		}
		if bk.hasOpen && bk.openRow == q[i].row {
			return i // first-ready row hit
		}
		if firstReady < 0 {
			firstReady = i
		}
	}
	return firstReady
}

// service performs the DRAM timing for one request. Row hits pipeline:
// the column pipeline overlaps CAS latency across back-to-back hits, so
// a hit occupies its bank only for the data burst, while a miss holds it
// through precharge and activation. Completion (data arrival) always
// includes the access latency.
func (c *Controller) service(e queued, now uint64) {
	req, row := e.req, e.row
	b := &c.banks[e.bank]
	var lat, occupancy uint64
	if b.hasOpen && b.openRow == row {
		lat = uint64(c.cfg.CASLatency)
		occupancy = uint64(c.cfg.BurstCycles)
		c.stats.RowHits++
	} else {
		lat = uint64(c.cfg.RowMissLatency())
		occupancy = lat + uint64(c.cfg.BurstCycles)
		c.stats.RowMisses++
	}
	b.openRow = row
	b.hasOpen = true
	start := now + lat
	if c.busBusy > start {
		start = c.busBusy
	}
	done := start + uint64(c.cfg.BurstCycles)
	c.busBusy = done
	b.busyUntil = now + occupancy
	if done > b.busyUntil {
		b.busyUntil = done - lat + occupancy // burst slot pushes occupancy window
	}
	c.inflight = append(c.inflight, inflight{req: req, done: done})
	if req.Kind == memreq.Read {
		c.stats.Reads++
	} else {
		c.stats.Writes++
	}
	c.chargeApp(req.App, uint64(c.lineBytes))
}

// Pending returns queued plus in-flight requests (drain check).
func (c *Controller) Pending() int { return len(c.queue.q) + len(c.writeQ.q) + len(c.inflight) }

// NoEvent is the NextEvent result of a controller with no outstanding
// work.
const NoEvent = ^uint64(0)

// NextEvent returns the earliest future cycle (> now) at which the
// controller could make progress: an in-flight transfer completes, or a
// queued request's bank frees up and the request becomes serviceable. A
// request whose bank is already free is serviceable on the very next
// tick. The result is a sound lower bound: ticking the controller
// strictly before it is a no-op, apart from the bus-busy counter, which
// the next Tick catches up arithmetically. The memory partition skips
// its ticks up to this cycle.
//
//simlint:hotpath
func (c *Controller) NextEvent(now uint64) uint64 {
	next := uint64(NoEvent)
	for i := range c.inflight {
		if d := c.inflight[i].done; d <= now {
			return now + 1
		} else if d < next {
			next = d
		}
	}
	if t := c.queueNext(&c.queue, now); t < next {
		next = t
	}
	if t := c.queueNext(&c.writeQ, now); t < next {
		next = t
	}
	return next
}

// queueNext returns the earliest cycle a request in rq could be
// scheduled. Under FCFS only the head can ever be picked; under FR-FCFS
// any request whose bank is ready competes, so the answer is the earliest
// release among the banks that have requests.
//
//simlint:hotpath
func (c *Controller) queueNext(rq *reqQueue, now uint64) uint64 {
	if len(rq.q) == 0 {
		return NoEvent
	}
	if c.cfg.Sched == config.MemFCFS {
		if bu := c.banks[rq.q[0].bank].busyUntil; bu > now {
			return bu
		}
		return now + 1
	}
	next := uint64(NoEvent)
	for b, n := range rq.perBank {
		if n == 0 {
			continue
		}
		bu := c.banks[b].busyUntil
		if bu <= now {
			return now + 1
		}
		if bu < next {
			next = bu
		}
	}
	return next
}
