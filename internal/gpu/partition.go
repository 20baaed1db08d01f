package gpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/fifo"
	"repro/internal/icnt"
	"repro/internal/memreq"
)

// partition is one memory partition: an L2 bank fronting a DRAM
// controller. The L2 bank is write-back for its own dirty lines but does
// not write-allocate incoming stores (store misses stream to DRAM), a
// common GPU L2 simplification that keeps store-heavy kernels from
// polluting the cache.
type partition struct {
	id        int
	lineBytes int
	l2        *cache.Cache
	mc        *dram.Controller

	// waiting maps an outstanding L2 miss line to the original upstream
	// read requests to answer when DRAM fills it.
	waiting map[uint64][]memreq.Request
	// spareWaiters recycles the waiter lists of filled lines, so
	// steady-state L2 misses allocate nothing; it never holds more lists
	// than there were lines outstanding at once.
	spareWaiters [][]memreq.Request

	// respQ holds responses awaiting interconnect bandwidth; entries
	// become eligible at their readyAt cycle (L2 hit latency).
	respQ fifo.Queue[delayedResp]

	// stashQ holds requests popped from the network that hit downstream
	// backpressure and must retry before any newer network traffic.
	stashQ fifo.Queue[memreq.Request]

	// reqsPerCycle bounds L2 lookups per cycle (bank port width).
	reqsPerCycle int

	// idleUntil caches the partition's next internal event (computed at
	// the end of each full tick): ticks strictly before it are no-ops
	// unless new work arrives from the interconnect, and are skipped.
	idleUntil uint64
}

type delayedResp struct {
	req     memreq.Request
	readyAt uint64
}

func newPartition(id int, cfg config.GPUConfig) (*partition, error) {
	bank := cfg.L2Bank()
	// The partition implements no-write-allocate at the L2; the cache
	// must agree so store misses return Bypass.
	bank.WriteAllocate = false
	l2, err := cache.New(bank)
	if err != nil {
		return nil, fmt.Errorf("partition %d: %w", id, err)
	}
	mc, err := dram.New(cfg.DRAM, cfg.L2.LineBytes)
	if err != nil {
		return nil, fmt.Errorf("partition %d: %w", id, err)
	}
	return &partition{
		id:           id,
		lineBytes:    cfg.L2.LineBytes,
		l2:           l2,
		mc:           mc,
		waiting:      make(map[uint64][]memreq.Request),
		reqsPerCycle: 1,
	}, nil
}

// tick advances the partition one cycle.
func (p *partition) tick(now uint64, net *icnt.Network) {
	// Fast path: the previous tick proved nothing internal can happen
	// before idleUntil (DRAM bus-busy accounting catches up on the next
	// real tick), so only newly arrived interconnect work forces a tick.
	if now < p.idleUntil && !net.ArrivedForPartition(p.id, now) {
		return
	}

	// 1. DRAM: retire completed reads into the L2 and answer waiters.
	for _, done := range p.mc.Tick(now) {
		p.fillAndRespond(done, now)
	}

	// 2. Drain pending responses into the interconnect.
	p.drainResponses(now, net)

	// 3. Retry stashed requests first (FIFO order), then accept new work
	// from the interconnect.
	if p.processStashed(now) {
		for i := 0; i < p.reqsPerCycle; i++ {
			req, ok := net.PopForPartition(p.id, now)
			if !ok {
				break
			}
			if !p.process(req, now) {
				p.stashQ.Push(req)
				break
			}
		}
	}

	p.idleUntil = p.nextEvent(now)
}

// processStashed retries backpressured requests; it reports whether the
// stash fully drained.
func (p *partition) processStashed(now uint64) bool {
	for p.stashQ.Len() > 0 {
		if !p.process(*p.stashQ.Peek(), now) {
			return false
		}
		p.stashQ.Pop()
	}
	return true
}

// process handles one upstream request. It returns false when the
// request cannot make progress (DRAM queue or MSHRs exhausted) and must
// be retried.
func (p *partition) process(req memreq.Request, now uint64) bool {
	switch req.Kind {
	case memreq.Write:
		res := p.l2.Access(req.Line, true, 0, req.App)
		switch res {
		case cache.Hit:
			return true // absorbed by the L2, written back on eviction
		case cache.Bypass:
			if !p.mc.CanAccept() {
				return false
			}
			return p.mc.Enqueue(req, now)
		default:
			// Write to a line with an outstanding read miss: stream it
			// to DRAM; the later fill holds the pre-store value, which
			// synthetic kernels never re-validate.
			if !p.mc.CanAccept() {
				return false
			}
			return p.mc.Enqueue(memreq.Request{Kind: memreq.Write, Line: req.Line, App: req.App, Size: req.Size}, now)
		}
	case memreq.Read:
		wouldMiss := p.l2.ProbeMiss(req.Line)
		if wouldMiss && (p.l2.MSHRFree() == 0 || !p.mc.CanAccept()) {
			return false
		}
		if !wouldMiss && !p.l2.Probe(req.Line) && !p.l2.CanMerge(req.Line) {
			return false // merge list full
		}
		res := p.l2.Access(req.Line, false, 0, req.App)
		switch res {
		case cache.Hit:
			p.respQ.Push(delayedResp{
				req:     p.reply(req),
				readyAt: now + uint64(p.l2.Config().LatencyCycles),
			})
			return true
		case cache.Miss:
			if !p.mc.Enqueue(memreq.Request{Kind: memreq.Read, Line: req.Line, App: req.App, SM: req.SM, Warp: req.Warp, Size: memreq.ControlBytes}, now) {
				// Cannot happen: CanAccept was checked above, but keep
				// the request alive if it ever does.
				return false
			}
			p.addWaiter(req)
			return true
		case cache.MissMerged:
			p.addWaiter(req)
			return true
		default: // Stall
			return false
		}
	default:
		return true // replies never arrive here
	}
}

// fillAndRespond installs a DRAM-read line into the L2 and queues
// responses for every upstream request that waited on it.
func (p *partition) fillAndRespond(done memreq.Request, now uint64) {
	_, ev, evicted := p.l2.Fill(done.Line, done.App, false)
	if evicted {
		// Dirty victim: force the write-back out; refusal would deadlock
		// the fill path. The overflow is bounded by L2 associativity.
		p.mc.EnqueueForced(memreq.Request{
			Kind: memreq.Write,
			Line: ev.Line,
			App:  ev.Owner,
			Size: int32(p.lineBytes),
		}, now)
	}
	waiters, ok := p.waiting[done.Line]
	if !ok {
		return
	}
	for _, orig := range waiters {
		p.respQ.Push(delayedResp{req: p.reply(orig), readyAt: now})
	}
	delete(p.waiting, done.Line)
	p.spareWaiters = append(p.spareWaiters, waiters[:0])
}

// addWaiter records req as waiting on its line's outstanding L2 miss.
func (p *partition) addWaiter(req memreq.Request) {
	w, ok := p.waiting[req.Line]
	if n := len(p.spareWaiters); !ok && n > 0 {
		w = p.spareWaiters[n-1]
		p.spareWaiters = p.spareWaiters[:n-1]
	}
	p.waiting[req.Line] = append(w, req)
}

func (p *partition) reply(orig memreq.Request) memreq.Request {
	return memreq.Request{
		Kind: memreq.ReadReply,
		Line: orig.Line,
		App:  orig.App,
		SM:   orig.SM,
		Warp: orig.Warp,
		Size: int32(p.lineBytes),
	}
}

func (p *partition) drainResponses(now uint64, net *icnt.Network) {
	for {
		head := p.respQ.Peek()
		if head == nil || head.readyAt > now {
			return
		}
		if !net.TrySendToSM(head.req, now) {
			return
		}
		p.respQ.Pop()
	}
}

// pending reports whether the partition still holds in-flight work.
func (p *partition) pending() int {
	return p.respQ.Len() + p.stashQ.Len() + p.mc.Pending() + len(p.waiting)
}

// nextEvent returns the earliest future cycle (> now) at which the
// partition could make progress on its own: the DRAM controller retires
// or schedules something, a stashed request retries, or a delayed
// response becomes eligible for injection. Work arriving from the
// interconnect is the network's concern; entries in the waiting map are
// covered by the DRAM events that will fill them. The respQ drains in
// FIFO order with head blocking, so only its head's readiness matters —
// an eligible head that could not inject this cycle (response bandwidth
// exhausted) retries next cycle.
func (p *partition) nextEvent(now uint64) uint64 {
	if p.stashQ.Len() > 0 {
		return now + 1
	}
	next := p.mc.NextEvent(now)
	if head := p.respQ.Peek(); head != nil {
		if head.readyAt <= now {
			return now + 1
		}
		if head.readyAt < next {
			next = head.readyAt
		}
	}
	return next
}
