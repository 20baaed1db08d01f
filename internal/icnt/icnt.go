// Package icnt models the on-chip interconnect between SIMT cores and
// memory partitions: a crossbar with a fixed traversal latency, bounded
// per-partition input queues, and an aggregate per-direction bandwidth
// budget. The request direction (SM→partition) and the response
// direction (partition→SM) contend independently, so heavy fill traffic
// (the paper's "L2→L1 bandwidth") saturates separately from request
// injection.
package icnt

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/fifo"
	"repro/internal/memreq"
)

type flit struct {
	req     memreq.Request
	readyAt uint64
}

// Stats counts network events per direction.
type Stats struct {
	ToMemPackets uint64
	ToMemBytes   uint64
	ToSMPackets  uint64
	ToSMBytes    uint64
	// ToMemStalls and ToSMStalls count refused injections (bandwidth or
	// queue-full), each of which the sender retries.
	ToMemStalls uint64
	ToSMStalls  uint64
}

// Network is the device interconnect. Drive Begin once per cycle before
// any sends, then TrySend*/PopFor* freely within the cycle.
type Network struct {
	cfg        config.IcntConfig
	partitions int
	lineBytes  int

	toMem  []fifo.Queue[flit] // per-partition input queues
	toSM   fifo.Queue[flit]   // single response stream, routed by req.SM
	budget struct {
		toMem int
		toSM  int
	}
	stats Stats
	// perAppToSM accumulates response bytes per application: this is the
	// paper's L2→L1 bandwidth numerator. It grows on demand.
	perAppToSM []uint64
	// arrivedBuf backs PopArrivedToSM's return value so per-cycle
	// response delivery performs no allocations.
	arrivedBuf []memreq.Request
}

// New builds a network for the given partition count.
func New(cfg config.IcntConfig, partitions, lineBytes int) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if partitions <= 0 {
		return nil, fmt.Errorf("icnt: partitions must be positive (got %d)", partitions)
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("icnt: line size must be a positive power of two (got %d)", lineBytes)
	}
	return &Network{
		cfg:        cfg,
		partitions: partitions,
		lineBytes:  lineBytes,
		toMem:      make([]fifo.Queue[flit], partitions),
	}, nil
}

// MustNew is New panicking on error.
func MustNew(cfg config.IcntConfig, partitions, lineBytes int) *Network {
	n, err := New(cfg, partitions, lineBytes)
	if err != nil {
		panic(err)
	}
	return n
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats { return n.stats }

// AppToSMBytes returns response bytes delivered toward SMs for app.
func (n *Network) AppToSMBytes(app int16) uint64 {
	if app < 0 || int(app) >= len(n.perAppToSM) {
		return 0
	}
	return n.perAppToSM[app]
}

// Partition maps a line address to its memory partition. Lines
// interleave round-robin (GPGPU-Sim style fine-grained interleaving), so
// streams spread across controllers while row locality inside each
// controller is preserved.
func (n *Network) Partition(line uint64) int {
	return int((line / uint64(n.lineBytes)) % uint64(n.partitions))
}

// Begin refills the per-cycle bandwidth budgets. Call once per core
// cycle. Budgets are leaky buckets: a packet larger than one cycle's
// refill injects by driving the budget negative and the debt is paid off
// over the following cycles, so configured bandwidth below the line size
// throttles rather than deadlocks.
func (n *Network) Begin() {
	n.budget.toMem += n.cfg.BytesPerCycle
	if n.budget.toMem > n.cfg.BytesPerCycle {
		n.budget.toMem = n.cfg.BytesPerCycle
	}
	n.budget.toSM += n.cfg.BytesPerCycle
	if n.budget.toSM > n.cfg.BytesPerCycle {
		n.budget.toSM = n.cfg.BytesPerCycle
	}
}

// TrySendToMem injects a request toward its partition. It fails (and the
// sender must retry) when the cycle's bandwidth budget is spent or the
// destination queue is full.
func (n *Network) TrySendToMem(req memreq.Request, now uint64) bool {
	p := n.Partition(req.Line)
	if n.toMem[p].Len() >= n.cfg.QueueSize {
		n.stats.ToMemStalls++
		return false
	}
	if n.budget.toMem <= 0 {
		n.stats.ToMemStalls++
		return false
	}
	n.budget.toMem -= int(req.Size)
	n.toMem[p].Push(flit{req: req, readyAt: now + uint64(n.cfg.LatencyCycles)})
	n.stats.ToMemPackets++
	n.stats.ToMemBytes += uint64(req.Size)
	return true
}

// TrySendToSM injects a response toward its SM, subject to the response
// bandwidth budget. The response path has no queue bound: SMs always
// sink fills.
func (n *Network) TrySendToSM(req memreq.Request, now uint64) bool {
	if n.budget.toSM <= 0 {
		n.stats.ToSMStalls++
		return false
	}
	n.budget.toSM -= int(req.Size)
	n.toSM.Push(flit{req: req, readyAt: now + uint64(n.cfg.LatencyCycles)})
	n.stats.ToSMPackets++
	n.stats.ToSMBytes += uint64(req.Size)
	if req.App >= 0 {
		for int(req.App) >= len(n.perAppToSM) {
			n.perAppToSM = append(n.perAppToSM, 0)
		}
		n.perAppToSM[req.App] += uint64(req.Size)
	}
	return true
}

// PopForPartition removes and returns the oldest arrived request queued
// for partition p, if any.
func (n *Network) PopForPartition(p int, now uint64) (memreq.Request, bool) {
	head := n.toMem[p].Peek()
	if head == nil || head.readyAt > now {
		return memreq.Request{}, false
	}
	return n.toMem[p].Pop().req, true
}

// ArrivedForPartition reports whether partition p's oldest queued
// request has completed traversal and is poppable at now.
func (n *Network) ArrivedForPartition(p int, now uint64) bool {
	head := n.toMem[p].Peek()
	return head != nil && head.readyAt <= now
}

// PopArrivedToSM removes and returns every response that has completed
// traversal by now. The caller routes each to req.SM. The returned slice
// is reused by the next call; callers consume it before popping again.
func (n *Network) PopArrivedToSM(now uint64) []memreq.Request {
	out := n.arrivedBuf[:0]
	for {
		head := n.toSM.Peek()
		if head == nil || head.readyAt > now {
			break
		}
		out = append(out, n.toSM.Pop().req)
	}
	n.arrivedBuf = out
	return out
}

// Pending returns the number of messages in flight in both directions.
func (n *Network) Pending() int {
	total := n.toSM.Len()
	for p := range n.toMem {
		total += n.toMem[p].Len()
	}
	return total
}
