package fleet

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/classify"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
)

// JobRecord is one job's lifecycle in fleet time (cycles). It is also
// the only per-job record a run keeps: the event loop runs on it, and
// its unexported fields are the loop's per-job state, live only during
// Run and zero in every record Run returns.
type JobRecord struct {
	// ID is the arrival index.
	ID int
	// Name identifies the application; Class, below, is its class.
	Name string
	// Deadline is the latency job's relative deadline in cycles from
	// arrival (0 for batch).
	Deadline uint64
	// Arrival, Dispatch and Complete are absolute fleet cycles.
	// Dispatch is the job's final (completing) dispatch; preempted
	// attempts are counted by Evictions and recorded in
	// Result.Evictions.
	Arrival  uint64
	Dispatch uint64
	Complete uint64
	// Device is which GPU ran the job (to completion).
	Device int
	// Class is the application's class. It and the next three fields
	// take one byte each and share a word with client; Evictions and
	// Attempts fill the word after, which keeps the record at 96 bytes
	// (TestJobRecordSize).
	Class classify.Class
	// SLO is the job's service-level class.
	SLO SLOClass
	// Outcome is how the job left the system: Done (the only outcome in
	// open-loop runs without admission control), Rejected by admission,
	// or Abandoned by its client's timeout.
	Outcome JobOutcome
	// state is the lifecycle the conservation accounting reads
	// (jsPending .. jsRejected, control.go); client is the closed-loop
	// client pool that owns the job, -1 for open-loop arrivals.
	state  uint8
	client int32
	// Evictions counts how many times the job was preempted before it
	// completed.
	Evictions int32
	// Attempts counts submissions, retries included (always 1 outside
	// closed-loop runs).
	Attempts int32
	// app is the state the job shares with every job of its
	// application (sim.go). progress is the checkpointed completed
	// fraction preserved across evictions, in [0, maxCheckpoint].
	app      *appInfo
	progress float64
}

// JobOutcome is a job's terminal state.
type JobOutcome uint8

const (
	// Done completed normally (the zero value, so pre-control records
	// read as completed).
	Done JobOutcome = iota
	// Rejected was refused by admission control and never ran.
	Rejected
	// Abandoned timed out in the queue and was withdrawn by its client.
	Abandoned
)

// String names the outcome as the CSV spells it.
func (o JobOutcome) String() string {
	switch o {
	case Done:
		return "done"
	case Rejected:
		return "rejected"
	case Abandoned:
		return "abandoned"
	default:
		return fmt.Sprintf("JobOutcome(%d)", int(o))
	}
}

// Wait is the queueing delay before the final dispatch (0 for jobs
// that never dispatched — rejected or abandoned ones).
func (j *JobRecord) Wait() uint64 {
	if j.Dispatch < j.Arrival {
		return 0
	}
	return j.Dispatch - j.Arrival
}

// Turnaround is arrival to completion (0 for jobs that never
// completed).
func (j *JobRecord) Turnaround() uint64 {
	if j.Complete < j.Arrival {
		return 0
	}
	return j.Complete - j.Arrival
}

// Missed reports whether a latency job completed past its deadline.
// Batch jobs never miss.
func (j *JobRecord) Missed() bool {
	return j.SLO == Latency && j.Complete > j.Arrival+j.Deadline
}

// Slack is the margin to the deadline in cycles (negative = missed),
// meaningful for latency jobs only.
func (j *JobRecord) Slack() int64 {
	return int64(j.Arrival+j.Deadline) - int64(j.Complete)
}

// Result is a whole fleet run's accounting.
type Result struct {
	Policy sched.Policy
	// Engine is the completion engine the run used.
	Engine EngineMode
	// Roster is the fleet composition as the CLI spells it, e.g.
	// "2xGTX480-60SM,2xSmall-8SM".
	Roster string
	// Devices is the total device count across the roster.
	Devices int
	NC      int
	// Jobs holds every job in arrival order.
	Jobs []JobRecord
	// Makespan is when the last device went idle.
	Makespan uint64
	// ThreadInstructions sums retired instructions across the fleet.
	ThreadInstructions uint64
	// DeviceBusy is per-device busy cycles.
	DeviceBusy []uint64
	// DeviceConfig is each device's configuration name, indexed like
	// DeviceBusy (heterogeneous rosters mix names).
	DeviceConfig []string
	// Groups counts completed dispatches; GreedyGroups/ILPGroups split
	// them by how the group was formed. Preempted dispatches are not
	// counted here — they appear in Evictions.
	Groups       int
	GreedyGroups int
	ILPGroups    int
	// SMMoves counts completed SM reallocations (ILPSMRA only).
	SMMoves int
	// CycleGroups/ModeledGroups split Groups by how the completion was
	// obtained: cycle-accurate simulation vs the analytic model. Under
	// the Cycle engine every group is a CycleGroup; under Modeled every
	// group is a ModeledGroup; Hybrid mixes.
	CycleGroups   int
	ModeledGroups int
	// ModelDelta is the Hybrid engine's fidelity measure: the mean
	// absolute relative error between the raw model's and the
	// simulation's per-member completion cycles over the calibration
	// runs (0 outside Hybrid or before any calibration resolved).
	ModelDelta float64
	// Evictions records every preemption and chaos eviction, ordered by
	// (cycle, device).
	Evictions []EvictionRecord
	// Series is the per-interval time series sampled during the run,
	// present exactly when Config.SampleEvery > 0 (see internal/obs for
	// the column layout and renderings). Like the summary, it is
	// deterministic: same seed and configuration, byte-identical series.
	Series *obs.Series
	// Closed, Admission, Autoscale and Chaos record which control
	// surfaces the run had enabled; the control counters below are only
	// meaningful (and only rendered) when one of them is set.
	Closed    bool
	Admission bool
	Autoscale bool
	Chaos     bool
	// Submitted counts submissions (closed-loop attempts include
	// retries); Rejected, Degraded and Abandoned are admission and
	// timeout outcomes per attempt; Retried counts resubmissions.
	// Conservation: after a drained run, Submitted == completed jobs +
	// Rejected + Abandoned.
	Submitted int
	Rejected  int
	Degraded  int
	Abandoned int
	Retried   int
	// Provisions and Decommissions count autoscale roster changes.
	Provisions    int
	Decommissions int
	// Failures, Drains and Restores count executed chaos events;
	// ChaosEvictions counts the in-flight groups failures killed (also
	// present in Evictions with TriggerJob = chaosTriggerID).
	Failures       int
	Drains         int
	Restores       int
	ChaosEvictions int
}

// CompletedJobs counts jobs that ran to completion.
func (r Result) CompletedJobs() int {
	n := 0
	for _, j := range r.Jobs {
		if j.Outcome == Done {
			n++
		}
	}
	return n
}

// Throughput is the fleet analogue of Equation 1.1: retired thread
// instructions over the fleet makespan. Devices run in parallel, so
// with N busy devices this approaches N times a single device's rate.
func (r Result) Throughput() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.ThreadInstructions) / float64(r.Makespan)
}

// Utilization is the fraction of the makespan device d spent executing.
func (r Result) Utilization(d int) float64 {
	if r.Makespan == 0 || d < 0 || d >= len(r.DeviceBusy) {
		return 0
	}
	return float64(r.DeviceBusy[d]) / float64(r.Makespan)
}

// MeanUtilization averages Utilization over the fleet.
func (r Result) MeanUtilization() float64 {
	if len(r.DeviceBusy) == 0 {
		return 0
	}
	sum := 0.0
	for d := range r.DeviceBusy {
		sum += r.Utilization(d)
	}
	return sum / float64(len(r.DeviceBusy))
}

// Turnarounds returns every completed job's turnaround in kilocycles.
func (r Result) Turnarounds() []float64 {
	out := make([]float64, 0, len(r.Jobs))
	for i := range r.Jobs {
		if j := &r.Jobs[i]; j.Outcome == Done {
			out = append(out, float64(j.Turnaround())/1000)
		}
	}
	return out
}

// DeadlineMisses counts latency jobs that completed past their
// deadline.
func (r Result) DeadlineMisses() int {
	n := 0
	for i := range r.Jobs {
		if r.Jobs[i].Missed() {
			n++
		}
	}
	return n
}

// WastedCycles sums the eviction records' wasted work.
func (r Result) WastedCycles() uint64 {
	sum := uint64(0)
	for _, e := range r.Evictions {
		sum += e.Wasted
	}
	return sum
}

// EvictionTrace renders every preemption as one line per event, in
// event order — the deterministic trace the preemption golden test
// compares across runs. Empty string when nothing was evicted.
func (r Result) EvictionTrace() string {
	if len(r.Evictions) == 0 {
		return ""
	}
	lines := make([]string, len(r.Evictions))
	for i, e := range r.Evictions {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n") + "\n"
}

// deviceLabel names device d's configuration ("?" when unknown).
func (r Result) deviceLabel(d int) string {
	if d < len(r.DeviceConfig) {
		return r.DeviceConfig[d]
	}
	return "?"
}

// RunStats is what a run's job records aggregate to: the job counts,
// the deadline-miss rate, and the completed jobs' wait, turnaround and
// deadline-slack distributions in kilocycles. Result.Stats computes it;
// Summary, the sweep metrics and the experiment tables all read it.
type RunStats struct {
	// Completed counts jobs that ran to completion. Latency counts
	// latency-class jobs, and CompletedLatency those of them that
	// completed: the deadline-miss denominator, since rejected and
	// abandoned jobs never had a completion to judge.
	Completed        int
	Latency          int
	CompletedLatency int
	// Misses counts latency jobs that completed past their deadline, and
	// MissRate is Misses over CompletedLatency (0 when there are none),
	// so admission shedding load cannot masquerade as meeting deadlines
	// for jobs it never ran.
	Misses   int
	MissRate float64
	// Wait and Turnaround summarize every completed job's queueing delay
	// and turnaround; ClassWait and ClassTurnaround split them by SLO
	// class.
	Wait, Turnaround           stats.Summary
	ClassWait, ClassTurnaround [2]stats.Summary // by SLOClass
	// Slack summarizes the completed latency jobs' deadline slack
	// (negative = missed); its percentiles are the latency class's
	// deadline-miss percentiles (P50 < 0 means the median job missed).
	Slack stats.Summary
}

// Stats aggregates the job records in one pass by index. Each SLO
// class's wait and turnaround cycles share one job-count array per
// metric — latency samples fill it from the front, batch samples from
// the back — so the pass allocates without counting first, and one
// allocation holds both arrays and the scratch the radix sorts use.
// Each class is sorted once; the fleet-wide summaries merge the two
// sorted classes into the scratch, the same samples in the same
// ascending order one sort of all of them would give. The samples are
// gathered at 32 bits, half the memory and sort traffic, and the pass
// is redone at 64 bits only when some wait or turnaround does not fit.
// The records decide the width, so no Result, however built, can
// truncate a sample.
func (r Result) Stats() RunStats {
	if s, ok := runStats[uint32](r.Jobs); ok {
		return s
	}
	s, _ := runStats[uint64](r.Jobs)
	return s
}

// runStats is Stats with samples gathered as T. It reports false when
// some sample exceeds T's range, and its RunStats is then incomplete.
func runStats[T uint32 | uint64](jobs []JobRecord) (RunStats, bool) {
	var s RunStats
	n := len(jobs)
	buf := make([]T, 3*n)
	waits, turns, scratch := buf[:n], buf[n:2*n], buf[2*n:]
	var slack []int64
	var or uint64
	lat, batch := 0, n
	for i := range jobs {
		j := &jobs[i]
		if j.SLO == Latency {
			s.Latency++
		}
		if j.Missed() {
			s.Misses++
		}
		if j.Outcome != Done {
			continue
		}
		s.Completed++
		w, t := j.Wait(), j.Turnaround()
		or |= w | t
		if j.SLO == Latency {
			waits[lat], turns[lat] = T(w), T(t)
			lat++
			slack = append(slack, j.Slack())
		} else {
			batch--
			waits[batch], turns[batch] = T(w), T(t)
		}
	}
	if or > uint64(^T(0)) {
		return s, false
	}
	s.CompletedLatency = lat
	if lat > 0 {
		s.MissRate = float64(s.Misses) / float64(lat)
	}
	wait := [2][]T{Latency: waits[:lat], Batch: waits[batch:]}
	turn := [2][]T{Latency: turns[:lat], Batch: turns[batch:]}
	for c := range wait {
		stats.SortUnsigned(wait[c], scratch)
		stats.SortUnsigned(turn[c], scratch)
		s.ClassWait[c] = kcycles(wait[c])
		s.ClassTurnaround[c] = kcycles(turn[c])
	}
	s.Wait = kcycles(mergeSorted(scratch, wait[Latency], wait[Batch]))
	s.Turnaround = kcycles(mergeSorted(scratch, turn[Latency], turn[Batch]))
	slices.Sort(slack)
	s.Slack = kcycles(slack)
	return s, true
}

// kcycles summarizes ascending cycle counts in kilocycles.
func kcycles[T uint32 | uint64 | int64](sorted []T) stats.Summary {
	return stats.SummarizeSorted(sorted, 1000)
}

// mergeSorted merges two ascending slices into dst, which must hold
// both, and returns the merged prefix of dst; when either input is
// empty it returns the other as it stands.
//
//simlint:hotpath
func mergeSorted[T uint32 | uint64](dst, a, b []T) []T {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	i, k := 0, 0
	for _, x := range a {
		for k < len(b) && b[k] < x {
			dst[i] = b[k]
			i++
			k++
		}
		dst[i] = x
		i++
	}
	i += copy(dst[i:], b[k:])
	return dst[:i]
}

// Summary renders the run as a deterministic multi-line report: two
// runs with the same seed and configuration produce byte-identical
// output (the reproducibility contract cmd/fleet and the tests rely
// on). Every line that aggregates job records renders from one Stats.
func (r Result) Summary() string {
	s := r.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: policy=%v devices=%d [%s] nc=%d jobs=%d\n", r.Policy, r.Devices, r.Roster, r.NC, len(r.Jobs))
	fmt.Fprintf(&b, "makespan    %d cycles\n", r.Makespan)
	fmt.Fprintf(&b, "throughput  %.2f instructions/cycle\n", r.Throughput())
	// SM moves is printed unconditionally — zero for non-SMRA policies —
	// so summaries keep one shape across policies and stay line-diffable.
	fmt.Fprintf(&b, "groups      %d (greedy %d, ilp %d), %d SM moves\n", r.Groups, r.GreedyGroups, r.ILPGroups, r.SMMoves)
	// The engine line appears exactly for the non-default engines, so
	// Cycle-mode summaries keep the historical (golden-locked) shape.
	if r.Engine != Cycle {
		fmt.Fprintf(&b, "engine      %v (%d cycle-accurate, %d modeled", r.Engine, r.CycleGroups, r.ModeledGroups)
		if r.Engine == Hybrid {
			fmt.Fprintf(&b, ", model delta %.1f%%", 100*r.ModelDelta)
		}
		b.WriteString(")\n")
	}
	// The control block appears exactly when a control surface was on,
	// so open-loop runs keep the historical (golden-locked) shape.
	if r.Closed || r.Admission || r.Autoscale || r.Chaos {
		fmt.Fprintf(&b, "control     submitted=%d completed=%d rejected=%d degraded=%d abandoned=%d retried=%d\n",
			r.Submitted, s.Completed, r.Rejected, r.Degraded, r.Abandoned, r.Retried)
	}
	if r.Autoscale {
		fmt.Fprintf(&b, "autoscale   provisions=%d decommissions=%d\n", r.Provisions, r.Decommissions)
	}
	if r.Chaos {
		fmt.Fprintf(&b, "chaos       failures=%d drains=%d restores=%d evictions=%d\n",
			r.Failures, r.Drains, r.Restores, r.ChaosEvictions)
	}
	b.WriteString("device util")
	for d := range r.DeviceBusy {
		fmt.Fprintf(&b, " d%d[%s]=%.1f%%", d, r.deviceLabel(d), 100*r.Utilization(d))
	}
	fmt.Fprintf(&b, " mean=%.1f%%\n", 100*r.MeanUtilization())
	fmt.Fprintf(&b, "wait        (kcycles) %v\n", s.Wait)
	fmt.Fprintf(&b, "turnaround  (kcycles) %v\n", s.Turnaround)
	// The per-class block appears exactly when the run carries SLO
	// classes, so class-blind runs keep the historical summary shape.
	if s.Latency > 0 || len(r.Evictions) > 0 {
		fmt.Fprintf(&b, "latency wait       (kcycles) %v\n", s.ClassWait[Latency])
		fmt.Fprintf(&b, "latency turnaround (kcycles) %v\n", s.ClassTurnaround[Latency])
		fmt.Fprintf(&b, "latency slack      (kcycles) %v\n", s.Slack)
		fmt.Fprintf(&b, "batch wait         (kcycles) %v\n", s.ClassWait[Batch])
		fmt.Fprintf(&b, "batch turnaround   (kcycles) %v\n", s.ClassTurnaround[Batch])
		fmt.Fprintf(&b, "deadline-miss      %d/%d (%.1f%%)\n", s.Misses, s.CompletedLatency, 100*s.MissRate)
		fmt.Fprintf(&b, "evictions          %d (wasted %d cycles)\n", len(r.Evictions), r.WastedCycles())
	}
	return b.String()
}
