package fleet

import (
	"fmt"

	"repro/internal/obs"
)

// The observability sampler. With Config.SampleEvery > 0 the event loop
// owns one sampler and the run's Result carries an obs.Series with one
// row per SampleEvery cycles of fleet time (plus a final partial row at
// the makespan when it does not land on a boundary). Each row reports
// the state "at the end of" its cycle: the loop emits a boundary's row
// only once simulated time provably advances past it, so all events at
// the boundary cycle itself (arrivals admitted, groups dispatched or
// retired there) are folded in. Between events the fleet's state is
// constant, which is what makes sampling on the event-time grid exact —
// there is nothing to observe between two events.
//
// Everything in a row is an integer and the sampling order is a pure
// function of the (already deterministic) event order, so identical
// seeds produce byte-identical series whatever the host is doing — the
// same contract the summary keeps, extended to the time axis.
//
// Row columns, fixed part first:
//
//	cycle          the sample's fleet cycle (the interval's right edge)
//	queue          waiting jobs, total / latency class / batch class
//	queue_latency
//	queue_batch
//	running        jobs currently executing across the fleet
//	busy_devices   devices with a group in flight
//	done           cumulative completed jobs
//	missed         cumulative latency jobs that completed past deadline
//	evictions      cumulative preemption events
//	groups         cumulative dispatched-and-completed groups,
//	groups_cycle   split by completion engine (cycle-accurate vs
//	groups_modeled analytic model)
//
// then, per device d: d<N>_inflight (members of the group executing on
// d, 0 = idle) and d<N>_busy (cycles of the row's interval d spent
// executing — interval-exact utilization, filled in when flights retire
// or are evicted since only then is the span known).
//
// The sampler allocates its buffers up front and reuses one scratch row
// per emission; with sampling off the event loop carries a nil pointer
// and pays nothing — the zero-steady-state-allocation property of the
// hot loop is preserved either way.
type sampler struct {
	interval uint64
	devices  int
	// extra selects the control-column block (submitted/rejected/…,
	// control.go), set exactly when the loop has a control block; fixed
	// is the per-device columns' base offset — numFixedCols, plus
	// numCtlCols when extra is on. Keeping the block conditional keeps
	// control-free series byte-identical to the historical
	// (golden-locked) layout.
	extra bool
	// chaos appends the chaos-column block (failed/draining gauges)
	// after the control block; it is only ever set together with extra,
	// because chaos enables the control surface.
	chaos bool
	fixed int
	// l is the owning loop, whose queue, flights, counters and control
	// gauges emit reads.
	l      *loop
	series *obs.Series
	// scratch is the reused row buffer Append copies from.
	scratch []uint64
	// lastEdge is the most recently emitted boundary cycle.
	lastEdge uint64
	// busy accumulates per-interval per-device busy cycles, flat
	// [bucket*devices + d]; bucket k covers [k*interval, (k+1)*interval).
	busy []uint64
	// done and missed are the cumulative per-job counters the Result
	// does not track incrementally.
	done, missed uint64
}

// Fixed columns ahead of the per-device pairs.
const (
	colCycle = iota
	colQueue
	colQueueLatency
	colQueueBatch
	colRunning
	colBusyDevices
	colDone
	colMissed
	colEvictions
	colGroups
	colGroupsCycle
	colGroupsModeled
	numFixedCols
)

// The control-column block, present exactly when a control surface is
// configured (sampler.extra): cumulative submission/outcome counters
// plus the active-device gauge the autoscaler moves.
const (
	colSubmitted = numFixedCols + iota
	colRejected
	colDegraded
	colAbandoned
	colRetried
	colActiveDevices
	numCtlCols = iota
)

// The chaos-column block, present exactly when failure injection is
// configured (sampler.chaos): gauges of how many devices are currently
// failed or draining. Chaos implies a control surface (ctlEnabled), so
// the block always follows the control block and these absolute
// offsets hold whenever it is emitted.
const (
	colFailedDevices = numFixedCols + numCtlCols + iota
	colDrainingDevices
	numChaosCols = iota
)

// newSampler builds loop l's sampler, one row per Config.SampleEvery
// cycles. A control block on the loop appends the control columns ahead
// of the per-device pairs; chaos appends the failed/draining gauges
// after them.
func newSampler(l *loop) *sampler {
	interval, devices := l.f.cfg.SampleEvery, len(l.flightOf)
	extra, chaos := l.ctl != nil, l.f.cfg.Chaos.Enabled
	fixed := numFixedCols
	if extra {
		fixed += numCtlCols
	}
	if chaos {
		fixed += numChaosCols
	}
	cols := make([]string, 0, fixed+2*devices)
	cols = append(cols, "cycle", "queue", "queue_latency", "queue_batch",
		"running", "busy_devices", "done", "missed", "evictions",
		"groups", "groups_cycle", "groups_modeled")
	if extra {
		cols = append(cols, "submitted", "rejected", "degraded",
			"abandoned", "retried", "active_devices")
	}
	if chaos {
		cols = append(cols, "failed_devices", "draining_devices")
	}
	for d := 0; d < devices; d++ {
		cols = append(cols, fmt.Sprintf("d%d_inflight", d))
	}
	for d := 0; d < devices; d++ {
		cols = append(cols, fmt.Sprintf("d%d_busy", d))
	}
	return &sampler{
		l:        l,
		interval: interval,
		devices:  devices,
		extra:    extra,
		chaos:    chaos,
		fixed:    fixed,
		series:   obs.NewSeries(interval, cols, 64),
		scratch:  make([]uint64, len(cols)),
	}
}

// advanceTo emits a row for every boundary strictly between the last
// emitted one and next, with the current (pre-advance) state. Events at
// next have not happened yet, so boundaries equal to next wait for a
// later advance (or finish) — their rows then include those events.
func (s *sampler) advanceTo(next uint64) {
	for edge := s.lastEdge + s.interval; edge < next; edge += s.interval {
		s.emit(edge)
	}
}

// noteRetire folds one retired flight's jobs into the cumulative done
// and deadline-miss counters (retire itself keeps Result incremental
// for everything else).
func (s *sampler) noteRetire(fl *inflight) {
	s.done += uint64(len(fl.jobs))
	for _, j := range fl.jobs {
		if j.Missed() {
			s.missed++
		}
	}
}

// addBusy charges device d's busy span [start, end) to the interval
// buckets it overlaps. Called when the span becomes known: at retire
// (dispatch to completion) and at eviction (dispatch to the eviction
// cycle). Total work over a run is one bucket visit per busy interval,
// O(makespan·devices/interval) — off the per-event critical path.
func (s *sampler) addBusy(d int, start, end uint64) {
	if end <= start {
		return
	}
	last := (end - 1) / s.interval
	s.growBuckets(last)
	for b := start / s.interval; b <= last; b++ {
		lo, hi := b*s.interval, (b+1)*s.interval
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		s.busy[int(b)*s.devices+d] += hi - lo
	}
}

// growBuckets extends the busy accounting out to bucket b.
func (s *sampler) growBuckets(b uint64) {
	need := (int(b) + 1) * s.devices
	for len(s.busy) < need {
		s.busy = append(s.busy, 0)
	}
}

// emit appends one row at cycle edge from the live loop state.
//
//simlint:hotpath
func (s *sampler) emit(edge uint64) {
	q, res := &s.l.queue, &s.l.res
	row := s.scratch
	row[colCycle] = edge
	row[colQueue] = uint64(q.Len())
	row[colQueueLatency] = uint64(q.latency)
	row[colQueueBatch] = uint64(q.Len() - q.latency)
	running, busyDevs := uint64(0), uint64(0)
	for d, fl := range s.l.flightOf {
		n := uint64(0)
		if fl != nil {
			n = uint64(len(fl.jobs))
			busyDevs++
		}
		running += n
		row[s.fixed+d] = n
	}
	row[colRunning] = running
	row[colBusyDevices] = busyDevs
	row[colDone] = s.done
	row[colMissed] = s.missed
	row[colEvictions] = uint64(len(res.Evictions))
	row[colGroups] = uint64(res.Groups)
	row[colGroupsCycle] = uint64(res.CycleGroups)
	row[colGroupsModeled] = uint64(res.ModeledGroups)
	if s.extra {
		row[colSubmitted] = uint64(res.Submitted)
		row[colRejected] = uint64(res.Rejected)
		row[colDegraded] = uint64(res.Degraded)
		row[colAbandoned] = uint64(res.Abandoned)
		row[colRetried] = uint64(res.Retried)
		row[colActiveDevices] = uint64(s.l.ctl.activeCount)
	}
	if s.chaos {
		row[colFailedDevices] = uint64(s.l.ctl.failedCount)
		row[colDrainingDevices] = uint64(s.l.ctl.drainingCount)
	}
	// Busy cycles are merged later (finish), once every overlapping
	// flight has retired; zero them here so a reused scratch row cannot
	// leak a previous sample's values.
	for d := 0; d < s.devices; d++ {
		row[s.fixed+s.devices+d] = 0
	}
	s.series.Append(row)
	s.lastEdge = edge
}

// finish emits the remaining boundaries up to the makespan with the
// final state, appends a partial row at the makespan itself when it is
// not on a boundary, merges the per-interval busy accounting into the
// d<N>_busy columns, and returns the completed series.
func (s *sampler) finish(makespan uint64) *obs.Series {
	for edge := s.lastEdge + s.interval; edge <= makespan; edge += s.interval {
		s.emit(edge)
	}
	if s.lastEdge < makespan {
		s.emit(makespan)
	}
	// Row k covers bucket k by construction: full rows sit at edge
	// (k+1)*interval, and the single partial row (if any) is last, over
	// the tail bucket.
	for r := 0; r < s.series.Rows(); r++ {
		for d := 0; d < s.devices; d++ {
			if i := r*s.devices + d; i < len(s.busy) {
				s.series.Set(r, s.fixed+s.devices+d, s.busy[i])
			}
		}
	}
	return s.series
}
