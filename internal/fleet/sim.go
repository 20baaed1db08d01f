package fleet

import (
	"fmt"
	"math"

	"repro/internal/classify"
	"repro/internal/match"
	"repro/internal/sched"
)

// appInfo is the state every job of one application shares: the
// per-type QueuedApp and solo profile, and the type-averaged estimates.
// resolve builds one per distinct name, so a job's record holds one
// pointer however many device types the roster has. An application may
// classify differently across hardware generations, so apps and solo
// are indexed by device type.
type appInfo struct {
	// apps holds the QueuedApp handed to each type's scheduler; its
	// Arrival is meaningless here (group stamps the job's own).
	apps []sched.QueuedApp
	// solo caches the per-type solo profile from the profiler's memo, so
	// the hot loop's runtime estimates and the analytic engine never take
	// the profiler's lock or build its string key per call.
	solo []soloProfile
	// soloEst is the mean calibrated solo duration across device types
	// (0 when never calibrated): the queue's O(1) backlog-work counter
	// and the admission predictor read it without touching profiles.
	soloEst uint64
	// coEst is soloEst inflated by the interference matrices' mean
	// co-run slowdown for this application's class (equal to soloEst
	// when no matrix is calibrated): the modeled admission predictor's
	// backlog-work unit.
	coEst uint64
}

// soloProfile is one application's cached solo-run profile on one
// device type: the calibrated cycles and retired thread instructions,
// and whether the profiler had them at all (ok false = never
// calibrated).
type soloProfile struct {
	cycles uint64
	instrs uint64
	ok     bool
}

// class is the job's class on device type t.
func (j *JobRecord) class(t int) classify.Class { return j.app.apps[t].Class }

// group builds the sched.Group members run as on device type t. Each
// member's QueuedApp is its application's, with Arrival set to the
// job's id, so within-group FCFS ordering is exactly what a per-job
// Queue call would have produced.
func group(members []*JobRecord, t int) sched.Group {
	g := make(sched.Group, len(members))
	for i, m := range members {
		g[i] = m.app.apps[t]
		g[i].Arrival = m.ID
	}
	return g
}

// deadlineAbs is the absolute fleet cycle the job must complete by
// (only meaningful for latency jobs).
func (j *JobRecord) deadlineAbs() uint64 { return j.Arrival + j.Deadline }

// remainingFrac is the share of the job's duration a (re-)dispatch must
// still execute: everything for a fresh job; for a checkpointed one the
// un-preserved remainder plus the explicit restart cost (re-reading
// inputs, replaying the un-checkpointed tail), capped at a full re-run.
func (j *JobRecord) remainingFrac() float64 {
	if j.progress == 0 {
		return 1
	}
	rem := 1 - j.progress + restartFrac
	if rem > 1 {
		rem = 1
	}
	return rem
}

// effectiveCycles scales a simulated per-member completion to the
// checkpoint model: a job that preserved fraction p of itself only
// occupies the device for its remaining fraction of the simulated run.
func (f *Fleet) effectiveCycles(j *JobRecord, end uint64) uint64 {
	rem := j.remainingFrac()
	if rem >= 1 {
		return end
	}
	e := uint64(math.Ceil(float64(end) * rem))
	if e < 1 {
		e = 1
	}
	return e
}

// inflight is one group executing on one device. Under the Cycle engine
// the result (rep) is computed on a worker goroutine and the event loop
// learns the completion by waiting on done — but only when it has to,
// thanks to the earliest lower bound below. Modeled flights are born
// resolved: rep is the analytic prediction and done stays nil.
type inflight struct {
	device   int
	typ      int
	dispatch uint64
	// seq is the dispatch sequence number; the unresolved heap breaks
	// earliest-bound ties by it, reproducing the old linear scan's
	// first-dispatched-wins order.
	seq int
	// earliest is a sound lower bound on the completion cycle, known at
	// dispatch time without simulating: the device cannot retire warp
	// instructions faster than its peak issue rate. It lets the event
	// loop commit to arrivals and already-resolved completions that
	// provably precede this group's completion while the simulation is
	// still running on its worker — the pipelining that makes a 4-device
	// fleet measurably faster than 4 sequential sims.
	earliest uint64
	jobs     []*JobRecord
	ilp      bool
	// state tracks the flight through the event core's heaps (pending →
	// resolved → retired, or → evicted from either); modeled marks
	// completions computed by the analytic model rather than simulated.
	state   flightState
	modeled bool
	// calKey is set on Hybrid warm-up flights: the composition whose
	// calibration this flight's resolution feeds.
	calKey string

	done     chan struct{}
	rep      sched.GroupReport
	err      error
	complete uint64
}

// lowerBoundCycles bounds a group's makespan on device type t from
// below without simulating. Two sound bounds, take the tighter:
//
//   - issue rate: every member must issue all of its warp instructions,
//     and even owning the whole device it cannot issue more than that
//     type's NumSMs*SchedulersPerSM per cycle. Weak for memory-bound
//     kernels, which run far below peak issue. (Warp instructions, not
//     thread instructions: PeakIPC counts issue slots, and one issued
//     instruction covers a whole warp.)
//   - solo profile: a member co-running on an SM partition with memory
//     contention cannot finish faster than its solo run on the whole
//     device of the same type. resolve caches every application's
//     solo profile per type up front, so the lookup is a slice index;
//     half the solo duration leaves margin for simulator
//     nonmonotonicities (partitioning shifts cache and DRAM row
//     locality in both directions).
//
// On a heterogeneous roster the bound must come from the device that
// will actually run the group — a big device's peak issue rate is not
// sound for a small one. The bound's only job is to be sound and large
// enough that the event loop can commit to other devices' completions
// while this group is still simulating — that is where the fleet's
// wall-clock concurrency comes from.
func (f *Fleet) lowerBoundCycles(members []*JobRecord, t int) uint64 {
	peak := f.types[t].Config().PeakIPC()
	bound := 1.0
	for _, m := range members {
		lb := float64(m.app.apps[t].Params.TotalInstrs()) / peak
		if sp := m.app.solo[t]; sp.ok {
			if solo := float64(sp.cycles) / 2; solo > lb {
				lb = solo
			}
		}
		// A checkpointed member's effective runtime is its simulated end
		// scaled by the remaining fraction, so its bound scales the same
		// way (end >= lb implies end*rem >= lb*rem).
		lb *= m.remainingFrac()
		if lb > bound {
			bound = lb
		}
	}
	return uint64(bound)
}

// finalize completes a settled job's record in place for Run to return
// — the one place outcome, device and class are decided — and zeroes
// the loop's private fields, so a returned record holds exported state
// only. Done is Outcome's zero value, so only the other outcomes are
// written.
func (f *Fleet) finalize(j *JobRecord) {
	// Open-loop jobs outside control runs never count attempts; report
	// the one submission they had.
	j.Attempts = max(j.Attempts, 1)
	t := 0
	switch j.state {
	case jsRejected:
		j.Outcome, j.Device = Rejected, -1
	case jsAbandoned:
		j.Outcome, j.Device = Abandoned, -1
	default:
		t = f.devType[j.Device]
	}
	j.Class = j.class(t)
	j.state, j.client, j.app, j.progress = 0, 0, nil, 0
}

// coRunCycles estimates the trigger's co-run duration on device type t:
// its remaining solo duration scaled by the least favorable slowdown
// the interference matrix predicts (worstSlow), or the plain solo when
// type t has no matrix. Deadline protection deliberately assumes the
// worst co-partner: the per-class matrix entries are averages, so an
// optimistic estimate predicts "will meet it" for jobs the simulation
// then misses by a small margin, and the rescue never fires.
//
//simlint:hotpath
func (f *Fleet) coRunCycles(j *JobRecord, t int) (uint64, bool) {
	solo, ok := f.soloCycles(j, t)
	if !ok {
		return 0, false
	}
	if f.worstSlow == nil || f.worstSlow[t] == nil {
		return solo, true
	}
	return uint64(float64(solo) * f.worstSlow[t][j.class(t)]), true
}

// chaosTriggerID is the EvictionRecord.TriggerJob sentinel for
// evictions forced by a device failure rather than a latency job.
const chaosTriggerID = -1

// evict checkpoints an aborted flight's members at cycle now and
// records the eviction, for preemption (triggerID is the latency job's
// id) and chaos (chaosTriggerID) alike, so a failure wastes exactly
// what a preemption of the same flight would have. Under the Cycle
// engine the group's simulation keeps running on its worker — its
// result is discarded, but the memo may still serve a later identical
// dispatch — so eviction never blocks the event loop.
//
// The checkpoint is taken from the solo-profile progress model, not from
// simulator state: a job that ran elapsed cycles preserves up to
// elapsed/solo of itself (optimistic — co-running is slower than solo),
// capped at maxCheckpoint. Wasted accounts the attempt time the
// checkpoints do not preserve plus the restart tax the re-dispatch will
// pay.
func (f *Fleet) evict(fl *inflight, triggerID int, now uint64, res *Result) {
	elapsed := now - fl.dispatch
	rec := EvictionRecord{Cycle: now, Device: fl.device, TriggerJob: triggerID}
	for _, j := range fl.jobs {
		before := j.progress
		var solo float64
		if sp := j.app.solo[fl.typ]; sp.ok {
			solo = float64(sp.cycles)
		}
		if solo > 0 {
			// A re-dispatched attempt spends its first min(restartFrac,
			// progress)*solo cycles replaying already-checkpointed work;
			// only the time past that replay earns new progress —
			// otherwise repeated evictions would mint checkpoint credit
			// out of restarts alone.
			fresh := float64(elapsed)
			if before > 0 {
				replay := restartFrac
				if before < replay {
					replay = before
				}
				fresh -= replay * solo
				if fresh < 0 {
					fresh = 0
				}
			}
			j.progress += fresh / solo
			if j.progress > maxCheckpoint {
				j.progress = maxCheckpoint
			}
		}
		j.Evictions++
		rec.Jobs = append(rec.Jobs, j.ID)
		rec.Progress = append(rec.Progress, j.progress)
		waste := float64(elapsed) - (j.progress-before)*solo
		if waste < 0 {
			waste = 0
		}
		// The restart tax actually charged on re-dispatch is capped by
		// remainingFrac at min(restartFrac, progress) of the solo run —
		// a job with no checkpoint re-runs from scratch and pays none.
		tax := restartFrac
		if j.progress < tax {
			tax = j.progress
		}
		waste += tax * solo
		rec.Wasted += uint64(waste)
	}
	// The aborted attempt occupied the device for real, and the device
	// goes idle now: the makespan covers it even when the evicted jobs
	// never complete.
	res.DeviceBusy[fl.device] += elapsed
	res.Makespan = max(res.Makespan, now)
	res.Evictions = append(res.Evictions, rec)
}

// predictedFree estimates when fl's device frees: the exact completion
// once the simulation has resolved, otherwise dispatch plus the longest
// member's remaining solo duration scaled by its class's expected
// co-run slowdown from the interference matrix (the model's own
// Equation 3.4 ingredients; plain solo when no matrix is calibrated).
// This is deliberately the model's likely free time, not the event
// loop's (halved) safety bound: the preemption decision wants a
// realistic estimate, while event ordering needs a provable one.
func (f *Fleet) predictedFree(fl *inflight) uint64 {
	if fl.state == flightResolved {
		return fl.complete
	}
	est := fl.earliest
	m := f.types[fl.typ].Matrix()
	var pat match.Pattern
	if m != nil {
		pat = make(match.Pattern, len(fl.jobs))
		for i, j := range fl.jobs {
			pat[i] = j.class(fl.typ)
		}
	}
	for i, j := range fl.jobs {
		solo, ok := f.soloCycles(j, fl.typ)
		if !ok {
			continue
		}
		dur := float64(solo)
		if pat != nil {
			dur *= match.MemberSlowdown(m, pat, i)
		}
		if e := fl.dispatch + uint64(dur); e > est {
			est = e
		}
	}
	return est
}

// soloCycles estimates how long job j would run alone on device type t,
// scaled to its checkpointed remainder. It is the dispatcher's cheapest
// (and fastest-possible) runtime estimate — resolve cached every
// application's solo profile per type, so this is a slice index.
func (f *Fleet) soloCycles(j *JobRecord, t int) (uint64, bool) {
	sp := j.app.solo[t]
	if !sp.ok {
		return 0, false
	}
	c := uint64(math.Ceil(float64(sp.cycles) * j.remainingFrac()))
	if c < 1 {
		c = 1
	}
	return c, true
}

// memberEnd is member i's checkpoint-scaled completion offset within
// flight fl: its per-member end (simulated or modeled, falling back to
// the group makespan) through the effective-cycles scaling. Both the
// event loop's completion ordering (flightCycles) and the final
// accounting (retire) read ends through this one helper, so the two can
// never disagree.
func (f *Fleet) memberEnd(fl *inflight, i int) uint64 {
	e := fl.rep.Cycles
	if i < len(fl.rep.Stats) && fl.rep.Stats[i].EndCycle > 0 {
		e = fl.rep.Stats[i].EndCycle
	}
	return f.effectiveCycles(fl.jobs[i], e)
}

// flightCycles is the group's effective device occupancy: the max of
// the members' checkpoint-scaled completion cycles (exactly the
// simulated group makespan when no member carries a checkpoint).
func (f *Fleet) flightCycles(fl *inflight) uint64 {
	end := uint64(0)
	for i := range fl.jobs {
		if e := f.memberEnd(fl, i); e > end {
			end = e
		}
	}
	return end
}

// resolve materializes jobs from the arrival stream. Arrival streams
// repeat a small application universe, so the per-type pipeline work
// (Queue's workload lookup, the profiler's locked solo-profile table) is
// done once per distinct name into a shared appInfo, and each job costs
// one map lookup — resolve cost scales with the universe, not the job
// count. The records are one arena, a single allocation for the run:
// the event loop runs on them and Result.Jobs returns them.
func (f *Fleet) resolve(arrivals []Arrival) ([]JobRecord, error) {
	infos := make(map[string]*appInfo)
	jobs := make([]JobRecord, len(arrivals))
	for i := range arrivals {
		a := &arrivals[i]
		if i > 0 && a.Cycle < arrivals[i-1].Cycle {
			return nil, fmt.Errorf("fleet: arrivals not in cycle order (job %d at %d after %d)",
				i, a.Cycle, arrivals[i-1].Cycle)
		}
		info, err := f.appInfoFor(infos, a.Name)
		if err != nil {
			return nil, err
		}
		// Field by field: the arena is already zeroed, and a composite
		// literal would be built aside and copied in.
		j := &jobs[i]
		j.ID, j.Name, j.app, j.client = i, a.Name, info, -1
		j.Arrival, j.SLO, j.Deadline = a.Cycle, a.SLO, a.Deadline
	}
	return jobs, nil
}

// appInfoFor returns name's shared state from infos, building it on
// the name's first use.
func (f *Fleet) appInfoFor(infos map[string]*appInfo, name string) (*appInfo, error) {
	if info := infos[name]; info != nil {
		return info, nil
	}
	info, err := f.newAppInfo(name)
	if err != nil {
		return nil, err
	}
	infos[name] = info
	return info, nil
}

// newAppInfo builds one application's shared state: its QueuedApp and
// solo profile on every device type, and the type-averaged estimates.
func (f *Fleet) newAppInfo(name string) (*appInfo, error) {
	nt := len(f.types)
	info := &appInfo{apps: make([]sched.QueuedApp, nt), solo: make([]soloProfile, nt)}
	est, cnt := uint64(0), uint64(0)
	for t, pipe := range f.types {
		queued, err := pipe.Queue([]string{name})
		if err != nil {
			return nil, err
		}
		info.apps[t] = queued[0]
		if r, ok := pipe.Profiler().Peek(name, 0); ok {
			info.solo[t] = soloProfile{cycles: r.Cycles, instrs: r.ThreadInstructions, ok: true}
			est += r.Cycles
			cnt++
		}
	}
	if cnt == 0 {
		return info, nil
	}
	info.soloEst = est / cnt
	info.coEst = info.soloEst
	if f.meanSlow != nil {
		// The interference-aware estimate: each calibrated type's solo
		// duration inflated by the mean co-run slowdown the matrix
		// predicts for this application's class there.
		co := 0.0
		for t := range f.types {
			if sp := info.solo[t]; sp.ok {
				co += float64(sp.cycles) * f.meanSlow[t][info.apps[t].Class]
			}
		}
		info.coEst = uint64(co / float64(cnt))
	}
	return info, nil
}
