package dram

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/memreq"
	"repro/internal/rng"
)

// refController is the scan-based scheduler the bank index replaced:
// every tick re-decodes (bank, row) for each queued request, and
// NextEvent scans both queues. It is the oracle for the indexed
// controller and tracks everything Stats and NextEvent depend on.
type refController struct {
	cfg        config.DRAMConfig
	banks      []bank
	queue      []memreq.Request
	writeQ     []memreq.Request
	writeDrain bool
	inflight   []inflight
	busBusy    uint64
	stats      Stats
	lastNow    uint64
	decoder    *Controller // bankAndRow only
}

func newRef(cfg config.DRAMConfig) *refController {
	return &refController{cfg: cfg, banks: make([]bank, cfg.Banks), decoder: MustNew(cfg, 128)}
}

func (c *refController) enqueue(req memreq.Request, forced bool) bool {
	if req.Kind == memreq.Write {
		if !forced && len(c.writeQ) >= 2*c.cfg.QueueSize {
			return false
		}
		c.writeQ = append(c.writeQ, req)
		return true
	}
	if !forced && len(c.queue) >= c.cfg.QueueSize {
		return false
	}
	c.queue = append(c.queue, req)
	return true
}

func (c *refController) tick(now uint64) []memreq.Request {
	if now > c.lastNow+1 && c.busBusy > c.lastNow+1 {
		hi := min(now-1, c.busBusy-1)
		c.stats.BusyCycles += hi - c.lastNow
	}
	c.lastNow = now
	var completed []memreq.Request
	for i := 0; i < len(c.inflight); {
		if c.inflight[i].done <= now {
			if c.inflight[i].req.Kind == memreq.Read {
				completed = append(completed, c.inflight[i].req)
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
	if !c.writeDrain && len(c.writeQ) >= 3*c.cfg.QueueSize/2 {
		c.writeDrain = true
	}
	if c.writeDrain && len(c.writeQ) <= c.cfg.QueueSize/4 {
		c.writeDrain = false
	}
	if !c.writeDrain {
		if idx := c.pick(c.queue, now); idx >= 0 {
			c.service(c.queue[idx], now)
			c.queue = slices.Delete(c.queue, idx, idx+1)
			return completed
		}
	}
	if idx := c.pick(c.writeQ, now); idx >= 0 {
		c.service(c.writeQ[idx], now)
		c.writeQ = slices.Delete(c.writeQ, idx, idx+1)
	} else if c.writeDrain {
		if idx := c.pick(c.queue, now); idx >= 0 {
			c.service(c.queue[idx], now)
			c.queue = slices.Delete(c.queue, idx, idx+1)
		}
	}
	return completed
}

func (c *refController) pick(q []memreq.Request, now uint64) int {
	if len(q) == 0 {
		return -1
	}
	if c.cfg.Sched == config.MemFCFS {
		b, _ := c.decoder.bankAndRow(q[0].Line)
		if c.banks[b].busyUntil <= now {
			return 0
		}
		return -1
	}
	firstReady := -1
	for i := range q {
		b, row := c.decoder.bankAndRow(q[i].Line)
		if c.banks[b].busyUntil > now {
			continue
		}
		if c.banks[b].hasOpen && c.banks[b].openRow == row {
			return i
		}
		if firstReady < 0 {
			firstReady = i
		}
	}
	return firstReady
}

func (c *refController) service(req memreq.Request, now uint64) {
	bIdx, row := c.decoder.bankAndRow(req.Line)
	b := &c.banks[bIdx]
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
	start := max(now+lat, c.busBusy)
	done := start + uint64(c.cfg.BurstCycles)
	c.busBusy = done
	b.busyUntil = now + occupancy
	if done > b.busyUntil {
		b.busyUntil = done - lat + occupancy
	}
	c.inflight = append(c.inflight, inflight{req: req, done: done})
	if req.Kind == memreq.Read {
		c.stats.Reads++
	} else {
		c.stats.Writes++
	}
}

func (c *refController) nextEvent(now uint64) uint64 {
	next := uint64(NoEvent)
	for i := range c.inflight {
		if d := c.inflight[i].done; d <= now {
			return now + 1
		} else if d < next {
			next = d
		}
	}
	return min(next, c.queueNext(c.queue, now), c.queueNext(c.writeQ, now))
}

func (c *refController) queueNext(q []memreq.Request, now uint64) uint64 {
	if len(q) == 0 {
		return NoEvent
	}
	if c.cfg.Sched == config.MemFCFS {
		b, _ := c.decoder.bankAndRow(q[0].Line)
		if bu := c.banks[b].busyUntil; bu > now {
			return bu
		}
		return now + 1
	}
	next := uint64(NoEvent)
	for i := range q {
		b, _ := c.decoder.bankAndRow(q[i].Line)
		bu := c.banks[b].busyUntil
		if bu <= now {
			return now + 1
		}
		next = min(next, bu)
	}
	return next
}

// TestIndexedSchedulerMatchesScan drives the bank-indexed controller and
// the scan-based reference with the same random request streams and
// requires the same completions, Stats and NextEvent on every tick. The
// streams mix row-local and scattered lines, skip idle cycles through
// NextEvent, keep the write buffer deep enough to cross both drain
// watermarks, and force write-backs past the queue limit.
func TestIndexedSchedulerMatchesScan(t *testing.T) {
	for _, sched := range []config.MemSchedPolicy{config.MemFRFCFS, config.MemFCFS} {
		for _, banks := range []int{3, 5, 8} {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := testCfg()
				cfg.Sched, cfg.Banks = sched, banks
				t.Run(fmt.Sprintf("%v/banks=%d/seed=%d", sched, banks, seed), func(t *testing.T) {
					diffRun(t, cfg, seed)
				})
			}
		}
	}
}

func diffRun(t *testing.T, cfg config.DRAMConfig, seed uint64) {
	c, ref := MustNew(cfg, 128), newRef(cfg)
	r := rng.NewStream(seed)
	var drained, overflowed bool
	now := uint64(1)
	for step := 0; step < 20000; step++ {
		// Bursts of enqueues: reads dominate early, writes late, so the
		// write buffer fills past its high watermark and drains again.
		writeBias := 3
		if step%4000 >= 2000 {
			writeBias = 7
		}
		for n := r.Intn(4); n > 0; n-- {
			line := uint64(r.Intn(8)) * 128 // row-local hot set
			if r.Intn(2) == 0 {
				line = uint64(r.Intn(1<<14)) * 128
			}
			req := read(line, int16(r.Intn(3)))
			if r.Intn(10) < writeBias {
				req = write(line, req.App)
			}
			forced := req.Kind == memreq.Write && r.Intn(8) == 0
			var got bool
			if forced {
				c.EnqueueForced(req, now)
				got = true
			} else {
				got = c.Enqueue(req, now)
			}
			if want := ref.enqueue(req, forced); got != want {
				t.Fatalf("cycle %d: Enqueue(%+v) = %v, reference %v", now, req, got, want)
			}
		}
		got, want := c.Tick(now), ref.tick(now)
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: completed %v, reference %v", now, got, want)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("cycle %d: stats %+v, reference %+v", now, c.Stats(), ref.stats)
		}
		if c.QueueLen() != len(ref.queue)+len(ref.writeQ) {
			t.Fatalf("cycle %d: queue length %d, reference %d", now, c.QueueLen(), len(ref.queue)+len(ref.writeQ))
		}
		next, refNext := c.NextEvent(now), ref.nextEvent(now)
		if next != refNext {
			t.Fatalf("cycle %d: NextEvent %d, reference %d", now, next, refNext)
		}
		drained = drained || c.writeDrain
		overflowed = overflowed || len(c.writeQ.q) > 2*cfg.QueueSize
		// Now and then jump straight to the next event, as the device
		// does, so the bus-busy catch-up path is compared too.
		if r.Intn(4) == 0 && next != NoEvent && next > now+1 {
			now = next
		} else {
			now++
		}
	}
	if !drained || !overflowed {
		t.Fatalf("stream never exercised write drain (%v) or forced overflow (%v)", drained, overflowed)
	}
}

// BenchmarkDRAMTickSaturated measures one controller tick on the GTX480
// DRAM configuration with a full read queue and a write backlog, both
// topped up after every tick: the state a memory-bound co-run holds the
// controller in. It must run at 0 allocs/op.
func BenchmarkDRAMTickSaturated(b *testing.B) {
	cfg := config.GTX480().DRAM
	c := MustNew(cfg, 128)
	r := rng.NewStream(1)
	line := func() uint64 { return uint64(r.Intn(1<<20)) * 128 }
	now := uint64(1)
	top := func() {
		for c.Enqueue(read(line(), 0), now) {
		}
		for len(c.writeQ.q) < cfg.QueueSize {
			c.Enqueue(write(line(), 1), now)
		}
	}
	// Warm every buffer to its steady-state capacity before timing.
	for i := 0; i < 10000; i++ {
		top()
		c.Tick(now)
		now++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top()
		c.Tick(now)
		now++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
}
