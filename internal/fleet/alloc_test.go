package fleet

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sched"
)

// dispatchRig isolates the modeled engine's steady-state dispatch round
// for the alloc guard and BenchmarkFleetDispatch: a warm dispatcher, a
// standing backlog, and a completion heap, with completed jobs fed back
// into the queue so the backlog never drains.
type dispatchRig struct {
	f        *Fleet
	queue    jobQueue
	disp     *dispatcher
	resolved flightHeap
	now      uint64
	seq      int
}

// newDispatchRig builds the rig on the 4-device test fleet with a
// 128-job backlog, all waiting at cycle zero.
func newDispatchRig(tb testing.TB) *dispatchRig {
	tb.Helper()
	p := testPipeline(tb)
	f, err := New(Config{Devices: homo(p, 4), NC: 2, Policy: sched.ILP, Engine: Modeled})
	if err != nil {
		tb.Fatal(err)
	}
	names := testNames()
	arrivals := make([]Arrival, 128)
	for i := range arrivals {
		arrivals[i] = Arrival{Name: names[i%len(names)]}
	}
	jobs, err := f.resolve(arrivals)
	if err != nil {
		tb.Fatal(err)
	}
	rig := &dispatchRig{
		f:        f,
		queue:    jobQueue{apps: f.apps},
		disp:     f.newDispatcher(),
		resolved: flightHeap{live: flightResolved},
	}
	for i := range jobs {
		rig.queue.insert(&jobs[i])
	}
	return rig
}

// step runs one steady-state dispatch round on device 0 — exactly the
// modeled engine's per-decision work: form a group, commit its modeled
// completion, pop and retire it, recycle the flight — and returns how
// many jobs it dispatched. The completed group's jobs are re-queued
// before recycle (recycle nils the flight's job slots), so the backlog
// is invariant across rounds.
func (r *dispatchRig) step(tb testing.TB) int {
	fl := r.disp.newFlight()
	members, usedILP := r.disp.formGroup(fl.jobs[:0], &r.queue, 0, r.now)
	fl.device = 0
	fl.typ = 0
	fl.dispatch = r.now
	fl.seq = r.seq
	fl.jobs = members
	fl.ilp = usedILP
	r.seq++
	if err := r.disp.commitModeled(fl, r.now, 1.0, nil, &r.resolved); err != nil {
		tb.Fatal(err)
	}
	got := r.resolved.pop()
	got.state = flightRetired
	for _, j := range got.jobs {
		r.queue.insert(j)
	}
	n := len(got.jobs)
	r.disp.recycle(got)
	r.now++
	return n
}

// TestDispatchSteadyStateAllocs locks the alloc scrub in place: once the
// dispatcher's scratch buffers, pick tables and flight pool are warm, one
// full dispatch round must not touch the heap at all. A regression here
// (a closure in the hot path, a map rebuilt per call, a profiler lookup
// creeping back in) fails this test before it shows up as a throughput
// cliff in the benchmarks.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	rig := newDispatchRig(t)
	// Warm every lazily grown structure: scratch buffers, the pick
	// tables, the flight pool, the heap and queue backing arrays.
	for i := 0; i < 200; i++ {
		rig.step(t)
	}
	if allocs := testing.AllocsPerRun(500, func() { rig.step(t) }); allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %.1f times per round, want 0", allocs)
	}
}

// BenchmarkFleetDispatch times the dispatcher's steady-state hot path:
// back-to-back group formations (windowed ILP over the memoized
// pattern-efficiency tables and pick tables) plus the event-core heap
// round trip, with the Modeled engine supplying completions instantly.
// The ns/job metric is the fleet's per-job dispatch overhead; the alloc
// guard above pins the same loop at zero allocations, which -benchmem
// confirms here as allocs/op.
func BenchmarkFleetDispatch(b *testing.B) {
	rig := newDispatchRig(b)
	for i := 0; i < 200; i++ {
		rig.step(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	jobs := 0
	for i := 0; i < b.N; i++ {
		jobs += rig.step(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
}

// TestJobRecordSize pins the per-job record at 80 bytes: its one-byte
// fields, the two-byte application index and the 32-bit counts pack
// into two words, and the loop's other per-job state lives outside it.
// A field that widens the record costs every job of every run.
func TestJobRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(JobRecord{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(JobRecord{}) = %d, want 80", got)
	}
}

// TestEvictedFlightsRecycled runs a preemption-heavy Modeled fleet (8
// test devices, bursty arrivals, a fifth of them latency jobs on a
// deadline shorter than a co-run of the longest application) and
// requires its flight records to stay O(devices), not O(evictions): an
// evicted modeled flight returns to the dispatcher's pool when the
// resolved heap drops its stale entry. Every record the run allocated
// must end in the pool or behind a stale entry still in the heap.
func TestEvictedFlightsRecycled(t *testing.T) {
	const devices = 8
	f, err := New(Config{
		Devices: homo(testPipeline(t), devices), NC: 2, Policy: sched.ILP, Engine: Modeled,
		SLO: SLOConfig{Enabled: true, Preempt: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ArrivalConfig{Kind: Bursty, Jobs: 20_000, Rate: 0.3, LatencyFrac: 0.2, Deadline: 30_000, Seed: 1}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	l, res, err := runLoop(t, f, arr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d evictions, %d flight records", len(res.Evictions), l.disp.flights)
	if len(res.Evictions) < 100*devices {
		t.Fatalf("%d evictions on %d devices; the run must be preemption-heavy", len(res.Evictions), devices)
	}
	if l.disp.flights > 4*devices {
		t.Fatalf("%d flight records for %d devices and %d evictions, want at most %d",
			l.disp.flights, devices, len(res.Evictions), 4*devices)
	}
	if held := len(l.disp.free) + len(l.resolved.v); held != l.disp.flights {
		t.Fatalf("%d of %d flight records are neither pooled nor in the resolved heap", l.disp.flights-held, l.disp.flights)
	}
}

// TestModeledRunMemoryBounded runs a million-job overloaded Modeled
// fleet — 16 test devices, Poisson arrivals at one per kilocycle, a
// tenth of them latency jobs under preemptive SLO dispatch — and bounds
// what Run and Summary allocate per job. Per-job state is one 80-byte
// JobRecord, which the event loop runs on and Result.Jobs returns;
// per-application state is shared, and Summary sorts each class once,
// in 32-bit samples (8 B/job: one buffer for waits and then
// turnarounds, and the scratch). The run reads about 124 B/job, and the
// bound leaves no room for a 16-byte field per record or a third sample
// buffer. The backlog grows to hundreds of thousands of batch jobs, so
// the test also pins latency arrivals to an O(1) insert instead of a
// shift of the whole backlog.
func TestModeledRunMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("million-job run")
	}
	const jobs = 1 << 20
	const maxBytesPerJob = 135
	p := testPipeline(t)
	f, err := New(Config{
		Devices: homo(p, 16), NC: 2, Policy: sched.ILP, Engine: Modeled,
		SLO: SLOConfig{Enabled: true, Preempt: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ArrivalConfig{Kind: Poisson, Jobs: jobs, Rate: 1, LatencyFrac: 0.1, Seed: 1}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	summary := res.Summary()
	runtime.ReadMemStats(&after)
	if len(res.Jobs) != jobs || summary == "" {
		t.Fatalf("%d job records for %d arrivals", len(res.Jobs), jobs)
	}
	for _, j := range res.Jobs {
		if j.Outcome != Done {
			t.Fatalf("job %d ended %v, want done", j.ID, j.Outcome)
		}
	}
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("Run + Summary allocated %.0f B/job", perJob)
	if perJob > maxBytesPerJob {
		t.Fatalf("Run + Summary allocated %.0f B/job, want at most %d", perJob, maxBytesPerJob)
	}
}

// TestClosedRunMemoryBounded is TestModeledRunMemoryBounded for the
// closed loop: a controlLoad run of 64 clients issuing 2048 requests
// each to 16 test devices, and Run plus Summary may allocate at most
// maxBytesPerRequest per request. Per-request state is the one 80-byte
// JobRecord, written straight into the arena, plus Summary's 32-bit
// samples; control events are bounded by the client count and the
// roster, not by the request count. The run reads about 94 B/request,
// and the bound leaves no room for a staged 40-byte Arrival per
// request. The run ends near cycle 230M, so a chaos horizon of 1e9
// instead of 3e8 only adds outages that never fire. Generated lazily
// they cost nothing, so the longer horizon may allocate at most
// sameHorizon more per request; the same outages materialized up to
// the horizon and passed as a trace cost about 4 B/request more there,
// as the run copies them into its chaos queue. The allowance absorbs
// the few hundred bytes to few kilobytes by which Run and Summary of
// one configuration differ from run to run (a GC inside the window
// empties fmt's printer pool, so Summary's formatting reallocates).
func TestClosedRunMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("131k-request closed loop")
	}
	const clients, requests = 64, 2048
	const maxBytesPerRequest = 110
	const sameHorizon = 1.0 // B/request
	var perRequest [2]float64
	for i, horizon := range []uint64{3e8, 1e9} {
		f, err := New(controlLoad(t, 16, clients, requests, horizon))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := f.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		summary := res.Summary()
		runtime.ReadMemStats(&after)
		if summary == "" {
			t.Fatal("empty summary")
		}
		checkConservation(t, "closed", res, clients*requests)
		checkControlsAct(t, res)
		perRequest[i] = float64(after.TotalAlloc-before.TotalAlloc) / (clients * requests)
		t.Logf("horizon %.0e: Run + Summary allocated %.0f B/request", float64(horizon), perRequest[i])
		if perRequest[i] > maxBytesPerRequest {
			t.Fatalf("horizon %.0e: Run + Summary allocated %.0f B/request, want at most %d",
				float64(horizon), perRequest[i], maxBytesPerRequest)
		}
	}
	if perRequest[1] > perRequest[0]+sameHorizon {
		t.Fatalf("horizon 1e9 allocated %.1f B/request, more than %.0f above the %.1f at 3e8",
			perRequest[1], sameHorizon, perRequest[0])
	}
}
