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

// JobRecord is one job's lifecycle in fleet time (cycles).
type JobRecord struct {
	// ID is the arrival index.
	ID int
	// Name and Class identify the application.
	Name  string
	Class classify.Class
	// SLO is the job's service-level class; Deadline is the latency
	// job's relative deadline in cycles from arrival (0 for batch).
	SLO      SLOClass
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
	// Evictions counts how many times the job was preempted before it
	// completed.
	Evictions int
	// Outcome is how the job left the system: Done (the only outcome in
	// open-loop runs without admission control), Rejected by admission,
	// or Abandoned by its client's timeout.
	Outcome JobOutcome
	// Attempts counts submissions, retries included (always 1 outside
	// closed-loop runs).
	Attempts int
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
func (j JobRecord) Wait() uint64 {
	if j.Dispatch < j.Arrival {
		return 0
	}
	return j.Dispatch - j.Arrival
}

// Turnaround is arrival to completion (0 for jobs that never
// completed).
func (j JobRecord) Turnaround() uint64 {
	if j.Complete < j.Arrival {
		return 0
	}
	return j.Complete - j.Arrival
}

// Missed reports whether a latency job completed past its deadline.
// Batch jobs never miss.
func (j JobRecord) Missed() bool {
	return j.SLO == Latency && j.Complete > j.Arrival+j.Deadline
}

// Slack is the margin to the deadline in cycles (negative = missed),
// meaningful for latency jobs only.
func (j JobRecord) Slack() int64 {
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
	// Shards is the configured partition count (Config.Shards; 0 or 1 =
	// the single loop). Counts above 1 partition the backlog, so the
	// accounting is that of a K-way-split fleet; repeat runs at the same
	// count are byte-identical.
	Shards int
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
	// Evictions records every preemption in event order.
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

// CompletedLatencyJobs counts latency-class jobs that ran to
// completion — the deadline-miss denominator (rejected or abandoned
// jobs never had a completion to judge).
func (r Result) CompletedLatencyJobs() int {
	n := 0
	for _, j := range r.Jobs {
		if j.SLO == Latency && j.Outcome == Done {
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

// Waits returns every completed job's queueing delay in kilocycles
// (rejected and abandoned jobs have no dispatch to measure).
func (r Result) Waits() []float64 {
	out := make([]float64, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		if j.Outcome == Done {
			out = append(out, float64(j.Wait())/1000)
		}
	}
	return out
}

// Turnarounds returns every completed job's turnaround in kilocycles.
func (r Result) Turnarounds() []float64 {
	out := make([]float64, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		if j.Outcome == Done {
			out = append(out, float64(j.Turnaround())/1000)
		}
	}
	return out
}

// WaitSummary summarizes queueing delay (kilocycles).
func (r Result) WaitSummary() stats.Summary { return stats.Summarize(r.Waits()) }

// TurnaroundSummary summarizes turnaround (kilocycles).
func (r Result) TurnaroundSummary() stats.Summary { return stats.Summarize(r.Turnarounds()) }

// classSamples projects the jobs of one SLO class through f, in
// kilocycles.
func (r Result) classSamples(c SLOClass, f func(JobRecord) float64) []float64 {
	var out []float64
	for _, j := range r.Jobs {
		if j.SLO == c && j.Outcome == Done {
			out = append(out, f(j)/1000)
		}
	}
	return out
}

// WaitSummaryFor summarizes queueing delay (kilocycles) for one SLO
// class.
func (r Result) WaitSummaryFor(c SLOClass) stats.Summary {
	return stats.Summarize(r.classSamples(c, func(j JobRecord) float64 { return float64(j.Wait()) }))
}

// TurnaroundSummaryFor summarizes turnaround (kilocycles) for one SLO
// class.
func (r Result) TurnaroundSummaryFor(c SLOClass) stats.Summary {
	return stats.Summarize(r.classSamples(c, func(j JobRecord) float64 { return float64(j.Turnaround()) }))
}

// LatencySlacks returns every latency job's deadline slack in
// kilocycles (negative = missed), in arrival order.
func (r Result) LatencySlacks() []float64 {
	return r.classSamples(Latency, func(j JobRecord) float64 { return float64(j.Slack()) })
}

// SlackSummary summarizes the latency-class deadline slack
// (kilocycles); its percentiles are the per-class deadline-miss
// percentiles (P50 < 0 means the median latency job missed).
func (r Result) SlackSummary() stats.Summary { return stats.Summarize(r.LatencySlacks()) }

// LatencyJobs counts jobs of the latency class.
func (r Result) LatencyJobs() int {
	n := 0
	for _, j := range r.Jobs {
		if j.SLO == Latency {
			n++
		}
	}
	return n
}

// DeadlineMisses counts latency jobs that completed past their
// deadline.
func (r Result) DeadlineMisses() int {
	n := 0
	for _, j := range r.Jobs {
		if j.Missed() {
			n++
		}
	}
	return n
}

// MissRate is the fraction of completed latency jobs that missed their
// deadline (0 when there are none). Rejected and abandoned jobs are
// excluded from the denominator — admission shedding load must not
// masquerade as meeting deadlines for jobs it never ran.
func (r Result) MissRate() float64 {
	if n := r.CompletedLatencyJobs(); n > 0 {
		return float64(r.DeadlineMisses()) / float64(n)
	}
	return 0
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

// summaryPass is what Summary reads from the job records, gathered in
// one pass by index: the completed jobs' wait and turnaround samples per
// SLO class and the completed latency jobs' deadline slacks, in
// kilocycles, each sorted ascending once; and the job counts.
type summaryPass struct {
	wait, turnaround [2][]float64 // by SLOClass
	slack            []float64
	completed        int
	latency          int
	completedLatency int
	misses           int
}

// summarize makes the pass. Each class's samples share one job-count
// array per metric — latency samples fill it from the front, batch
// samples from the back — so the pass allocates without counting first.
func (r Result) summarize() summaryPass {
	var s summaryPass
	n := len(r.Jobs)
	waits, turns := make([]float64, n), make([]float64, n)
	lat, batch := 0, n
	for i := range r.Jobs {
		j := &r.Jobs[i]
		if j.SLO == Latency {
			s.latency++
		}
		if j.Missed() {
			s.misses++
		}
		if j.Outcome != Done {
			continue
		}
		s.completed++
		w, t := float64(j.Wait())/1000, float64(j.Turnaround())/1000
		if j.SLO == Latency {
			waits[lat], turns[lat] = w, t
			lat++
			s.slack = append(s.slack, float64(j.Slack())/1000)
		} else {
			batch--
			waits[batch], turns[batch] = w, t
		}
	}
	s.completedLatency = lat
	s.wait = [2][]float64{Latency: waits[:lat], Batch: waits[batch:]}
	s.turnaround = [2][]float64{Latency: turns[:lat], Batch: turns[batch:]}
	for c := range s.wait {
		slices.Sort(s.wait[c])
		slices.Sort(s.turnaround[c])
	}
	slices.Sort(s.slack)
	return s
}

// mergeSorted merges two ascending slices into one ascending slice,
// returning either input as it stands when the other is empty.
func mergeSorted(a, b []float64) []float64 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]float64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0] < a[0] {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// Summary renders the run as a deterministic multi-line report: two
// runs with the same seed and configuration produce byte-identical
// output (the reproducibility contract cmd/fleet and the tests rely
// on). It reads the job records once (summarize) and sorts each class's
// samples once; the fleet-wide rows merge the two sorted classes, the
// same samples in the same ascending order the per-metric methods
// (WaitSummary, SlackSummary, ...) sort them into, so every line
// matches what those methods report.
func (r Result) Summary() string {
	s := r.summarize()
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
			r.Submitted, s.completed, r.Rejected, r.Degraded, r.Abandoned, r.Retried)
	}
	if r.Autoscale {
		fmt.Fprintf(&b, "autoscale   provisions=%d decommissions=%d\n", r.Provisions, r.Decommissions)
	}
	if r.Chaos {
		fmt.Fprintf(&b, "chaos       failures=%d drains=%d restores=%d evictions=%d\n",
			r.Failures, r.Drains, r.Restores, r.ChaosEvictions)
	}
	// The shard count is deliberately absent: the summary reports
	// simulated accounting only, and omitting the knob keeps shards=1
	// byte-identical to the pre-sharding format (Result.Shards carries
	// the count programmatically; cmd/fleet echoes it in its header).
	b.WriteString("device util")
	for d := range r.DeviceBusy {
		fmt.Fprintf(&b, " d%d[%s]=%.1f%%", d, r.deviceLabel(d), 100*r.Utilization(d))
	}
	fmt.Fprintf(&b, " mean=%.1f%%\n", 100*r.MeanUtilization())
	fmt.Fprintf(&b, "wait        (kcycles) %v\n", stats.SummarizeSorted(mergeSorted(s.wait[Latency], s.wait[Batch])))
	fmt.Fprintf(&b, "turnaround  (kcycles) %v\n", stats.SummarizeSorted(mergeSorted(s.turnaround[Latency], s.turnaround[Batch])))
	// The per-class block appears exactly when the run carries SLO
	// classes, so class-blind runs keep the historical summary shape.
	if s.latency > 0 || len(r.Evictions) > 0 {
		missRate := 0.0
		if s.completedLatency > 0 {
			missRate = float64(s.misses) / float64(s.completedLatency)
		}
		fmt.Fprintf(&b, "latency wait       (kcycles) %v\n", stats.SummarizeSorted(s.wait[Latency]))
		fmt.Fprintf(&b, "latency turnaround (kcycles) %v\n", stats.SummarizeSorted(s.turnaround[Latency]))
		fmt.Fprintf(&b, "latency slack      (kcycles) %v\n", stats.SummarizeSorted(s.slack))
		fmt.Fprintf(&b, "batch wait         (kcycles) %v\n", stats.SummarizeSorted(s.wait[Batch]))
		fmt.Fprintf(&b, "batch turnaround   (kcycles) %v\n", stats.SummarizeSorted(s.turnaround[Batch]))
		fmt.Fprintf(&b, "deadline-miss      %d/%d (%.1f%%)\n", s.misses, s.completedLatency, 100*missRate)
		fmt.Fprintf(&b, "evictions          %d (wasted %d cycles)\n", len(r.Evictions), r.WastedCycles())
	}
	return b.String()
}
