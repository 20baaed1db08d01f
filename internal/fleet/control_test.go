package fleet

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
)

// closedCase is the canonical closed-loop scenario the control tests
// share: a heterogeneous roster under client-pool traffic with think
// time, timeouts and retries, plus admission control and an elastic
// roster — every control surface on at once, which is exactly the
// configuration most likely to break determinism.
func closedCase(t *testing.T) Config {
	t.Helper()
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	return Config{
		Devices:     []DeviceSpec{{Pipe: small, Count: 4}, {Pipe: tiny, Count: 4}},
		NC:          2,
		Policy:      sched.ILPSMRA,
		Engine:      Modeled,
		SLO:         SLOConfig{Enabled: true},
		SampleEvery: goldenSampleEvery,
		Closed: ClosedConfig{
			Enabled: true, Clients: 16, Requests: 5,
			Think: 5_000, Timeout: 45_000, Retries: 2,
			LatencyFrac: 0.25, Deadline: 60_000,
			Seed: 0xC105ED, Universe: testNames(),
		},
		Admission: AdmissionConfig{Enabled: true, MaxWait: 60_000},
		// The low High watermark makes the roster actually move under
		// this load, so the goldens lock provision ordering too; the short
		// epoch makes runs cross many reconciliation ticks.
		Autoscale: AutoscaleConfig{Enabled: true, Min: 4, Max: 8, High: 1.2, Low: 0.5, Epoch: 10_000},
	}
}

// runClosedCase executes the scenario and renders the full observable
// output: the summary plus eviction trace, and the time-series CSV.
func runClosedCase(t *testing.T) (Result, string, string) {
	t.Helper()
	f, err := New(closedCase(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := res.Series.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return res, res.Summary() + res.EvictionTrace(), csv.String()
}

// checkConservation asserts the job-conservation invariant on a drained
// run: every submitted attempt ended in exactly one of completed,
// rejected or abandoned (nothing is in flight once Run returns), and
// the per-job records agree with the aggregate counters.
func checkConservation(t *testing.T, label string, res Result, jobs int) {
	t.Helper()
	if got := res.Submitted; got != res.CompletedJobs()+res.Rejected+res.Abandoned {
		t.Errorf("%s: conservation broken: submitted %d != completed %d + rejected %d + abandoned %d",
			label, got, res.CompletedJobs(), res.Rejected, res.Abandoned)
	}
	if len(res.Jobs) != jobs {
		t.Errorf("%s: job records = %d, want %d", label, len(res.Jobs), jobs)
	}
	if res.Retried != res.Submitted-jobs {
		t.Errorf("%s: retried %d != submitted %d - jobs %d", label, res.Retried, res.Submitted, jobs)
	}
	attempts, done, rejected, abandoned := 0, 0, 0, 0
	for _, j := range res.Jobs {
		attempts += int(j.Attempts)
		switch j.Outcome {
		case Done:
			done++
			if j.Device < 0 {
				t.Errorf("%s: job %d done on device %d", label, j.ID, j.Device)
			}
			if j.Complete < j.Dispatch || j.Dispatch < j.Arrival {
				t.Errorf("%s: job %d times out of order: arrival %d dispatch %d complete %d",
					label, j.ID, j.Arrival, j.Dispatch, j.Complete)
			}
		case Rejected:
			rejected++
		case Abandoned:
			abandoned++
		}
		if j.Attempts < 1 {
			t.Errorf("%s: job %d records %d attempts", label, j.ID, j.Attempts)
		}
	}
	if attempts != res.Submitted {
		t.Errorf("%s: per-job attempts sum %d != submitted %d", label, attempts, res.Submitted)
	}
	if done != res.CompletedJobs() {
		t.Errorf("%s: done records %d != CompletedJobs %d", label, done, res.CompletedJobs())
	}
	// The aggregate rejected/abandoned counters are per attempt; the
	// records carry only each job's terminal outcome, so the records
	// bound the counters from below.
	if rejected > res.Rejected || abandoned > res.Abandoned {
		t.Errorf("%s: terminal rejected/abandoned %d/%d exceed attempt counters %d/%d",
			label, rejected, abandoned, res.Rejected, res.Abandoned)
	}
}

// TestClosedLoopConservation is the property test behind the control
// surfaces: across engines, policies and seeds, every
// submitted attempt is accounted for — no job is lost or double-counted
// whatever combination of timeouts, retries, rejections and roster
// changes the run went through.
func TestClosedLoopConservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine EngineMode
		policy sched.Policy
	}{
		{"cycle-fcfs", Cycle, sched.FCFS},
		{"cycle-ilp", Cycle, sched.ILPSMRA},
		{"modeled", Modeled, sched.ILPSMRA},
	} {
		for _, seed := range []uint64{1, 2, 0xDEAD} {
			cfg := closedCase(t)
			cfg.Engine = tc.engine
			cfg.Policy = tc.policy
			cfg.Closed.Seed = seed
			// Tighten patience on one seed so abandonment and retry
			// exhaustion actually fire.
			if seed == 2 {
				cfg.Closed.Timeout = 20_000
				cfg.Admission.MaxWait = 30_000
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			label := tc.name
			checkConservation(t, label, res, cfg.Closed.Clients*cfg.Closed.Requests)
		}
	}
}

// TestClosedGolden locks the closed-loop path's observable output —
// summary, eviction trace and time series with the control-column
// block. Regenerate with
//
//	go test ./internal/fleet -run ClosedGolden -update
//
// only when the control surfaces' behavior is meant to change.
func TestClosedGolden(t *testing.T) {
	res, summary, csv := runClosedCase(t)
	if !res.Closed || !res.Admission || !res.Autoscale {
		t.Fatalf("control flags = %v/%v/%v, want all true", res.Closed, res.Admission, res.Autoscale)
	}
	compareGolden(t, "closed.golden", summary)
	compareGolden(t, "timeseries_closed.golden", csv)
}

// TestClosedDeterminism is the reproducibility contract for the control
// surfaces: with closed-loop clients, admission control and the
// autoscaler all live, repeated runs must produce byte-identical
// summaries, traces and series. Runs under -race in CI.
func TestClosedDeterminism(t *testing.T) {
	_, firstSum, firstCSV := runClosedCase(t)
	for run := 1; run < 3; run++ {
		_, sum, csv := runClosedCase(t)
		if sum != firstSum {
			t.Fatalf("run %d summary diverged from run 0:\n--- first ---\n%s--- again ---\n%s", run, firstSum, sum)
		}
		if csv != firstCSV {
			t.Fatalf("run %d time series diverged from run 0", run)
		}
	}
}

// TestAdmissionReducesMisses is the ablation the FleetAdmission
// scenario reports: under a flash crowd (many clients, no think time),
// admission control must strictly reduce the deadline-miss rate, and
// the cost — rejections — must be visible in the counters.
func TestAdmissionReducesMisses(t *testing.T) {
	run := func(admission bool) Result {
		cfg := closedCase(t)
		cfg.Autoscale = AutoscaleConfig{}
		cfg.Closed.Clients = 24
		cfg.Closed.Requests = 4
		// Nonzero think time is what gives rejection its teeth: a
		// rejected client leaves for a think period instead of hammering
		// the queue again in the same cycle.
		cfg.Closed.Think = 10_000
		cfg.Closed.Timeout = 0
		cfg.Closed.Retries = 0
		cfg.Closed.LatencyFrac = 0.5
		cfg.Admission = AdmissionConfig{}
		if admission {
			cfg.Admission = AdmissionConfig{Enabled: true, MaxWait: 25_000}
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if off.Rejected != 0 {
		t.Fatalf("admission off rejected %d jobs", off.Rejected)
	}
	if on.Rejected == 0 {
		t.Fatal("admission on rejected nothing; the bound never bit")
	}
	offStats, onStats := off.Stats(), on.Stats()
	if offStats.Misses == 0 {
		t.Fatal("flash crowd missed no deadlines; the ablation has no signal")
	}
	if onStats.MissRate >= offStats.MissRate {
		t.Errorf("admission on miss rate %.3f not below off %.3f (rejected %d)",
			onStats.MissRate, offStats.MissRate, on.Rejected)
	}
	checkConservation(t, "admission-off", off, 96)
	checkConservation(t, "admission-on", on, 96)
}

// TestAdmissionDegradeKeepsWork checks the degrade mode's contract:
// over-bound latency submissions are admitted as batch instead of
// rejected, so nothing is dropped and the degradations are counted.
func TestAdmissionDegradeKeepsWork(t *testing.T) {
	cfg := closedCase(t)
	cfg.Autoscale = AutoscaleConfig{}
	cfg.Closed.Clients = 24
	cfg.Closed.Requests = 4
	cfg.Closed.Think = 0
	cfg.Closed.Timeout = 0
	cfg.Closed.Retries = 0
	cfg.Closed.LatencyFrac = 0.5
	cfg.Admission = AdmissionConfig{Enabled: true, MaxWait: 40_000, Degrade: true}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Errorf("degrade mode rejected %d submissions", res.Rejected)
	}
	if res.Degraded == 0 {
		t.Error("degrade mode degraded nothing; the bound never bit")
	}
	if got := res.CompletedJobs(); got != 96 {
		t.Errorf("completed %d of 96 jobs; degrade mode must not drop work", got)
	}
}

// TestAutoscaleScales checks the elastic roster actually moves: under
// sustained closed-loop pressure with a small floor, the run must
// provision devices, and scale-down must reclaim them by the end.
func TestAutoscaleScales(t *testing.T) {
	cfg := closedCase(t)
	cfg.Autoscale = AutoscaleConfig{Enabled: true, Min: 1, Max: 8, High: 1.5, Low: 0.25}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Provisions == 0 {
		t.Error("autoscaler provisioned nothing under sustained pressure")
	}
	if res.Decommissions == 0 {
		t.Error("autoscaler never scaled down as the run drained")
	}
	checkConservation(t, "autoscale", res, cfg.Closed.Clients*cfg.Closed.Requests)
}

// TestClosedRejectsArrivals pins the Run contract: a closed-loop fleet
// generates its own submissions, so passing an open arrival stream is
// rejected rather than silently merged.
func TestClosedRejectsArrivals(t *testing.T) {
	cfg := closedCase(t)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(testArrivals(t, 4, 1)); err == nil {
		t.Fatal("closed-loop Run accepted an arrival stream")
	}
}

// TestControlValidation covers the new Config surfaces' validation.
func TestControlValidation(t *testing.T) {
	base := func() Config { return closedCase(t) }
	for _, tc := range []struct {
		name   string
		break_ func(*Config)
	}{
		{"no clients", func(c *Config) { c.Closed.Clients = 0 }},
		{"negative think", func(c *Config) { c.Closed.Think = -1 }},
		{"latency frac", func(c *Config) { c.Closed.LatencyFrac = 1.5 }},
		{"negative retries", func(c *Config) { c.Closed.Retries = -1 }},
		{"empty universe", func(c *Config) { c.Closed.Universe = nil }},
		{"admission bound", func(c *Config) { c.Admission.MaxWait = 0 }},
		{"autoscale min", func(c *Config) { c.Autoscale.Min = -1 }},
		{"autoscale order", func(c *Config) { c.Autoscale.Min = 6; c.Autoscale.Max = 2 }},
		{"autoscale roster", func(c *Config) { c.Autoscale.Max = 99 }},
		{"autoscale watermarks", func(c *Config) { c.Autoscale.High = 0.2; c.Autoscale.Low = 0.8 }},
	} {
		cfg := base()
		tc.break_(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// TestTimeoutPastCycleRange pins what a patience past the end of the
// cycle range means: the request never times out. now+Timeout would
// wrap for any submission after cycle 10, and a wrapped timer would
// fire in the past; such a timeout is not armed, so the run matches the
// same run without timeouts record for record.
func TestTimeoutPastCycleRange(t *testing.T) {
	run := func(timeout uint64) Result {
		cfg := closedCase(t)
		cfg.Closed.Timeout = timeout
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	never, huge := run(0), run(math.MaxUint64-10)
	if huge.Abandoned != 0 {
		t.Errorf("%d requests abandoned under a timeout past the cycle range", huge.Abandoned)
	}
	if !slices.Equal(huge.Jobs, never.Jobs) {
		t.Error("job records differ from the run without timeouts")
	}
}

// TestControlSourcesOrder checks the control block's three event
// sources against one keyHeap holding the same entries. Random
// interleavings push into the heap at any cycle and into the timer and
// chaos queues at cycles that never decrease, with many same-cycle
// ties across the sources, and pop through next and pop (step's half
// that picks the event): every pop must return exactly the single
// heap's least entry that is not a stale abandon timer. Heap events and
// timers are stamped from the one sequence; chaos entries carry
// chaosTie, as the event loop queues them, and the reference keys them
// below every stamp in push order, so chaos must win every same-cycle
// tie. Each timer guards a live job; some are armed stale, and others
// go stale while they wait, as their job settles.
func TestControlSourcesOrder(t *testing.T) {
	stale := func(e keyed[ctlEvent]) bool { return e.val.kind == evAbandon && !e.val.canAbandon() }
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.NewStream(seed)
		c := &loopCtl{}
		var ref keyHeap[ctlEvent]
		var timerAt, chaosAt uint64
		var timed []*JobRecord
		// least pops the reference's least entry that is not a stale
		// timer.
		least := func() (keyed[ctlEvent], bool) {
			for len(ref.v) > 0 {
				e := ref.v[0]
				ref.removeAt(0)
				if !stale(e) {
					return e, true
				}
			}
			return keyed[ctlEvent]{}, false
		}
		for op := 0; op < 4000; op++ {
			var at uint64
			var q *monoQueue[ctlEvent]
			switch k := r.Intn(9); {
			case k < 2:
				at = uint64(r.Intn(int(max(timerAt, chaosAt)) + 4))
			case k < 4:
				timerAt += uint64(r.Intn(2))
				at, q = timerAt, &c.timers
			case k < 5:
				chaosAt += uint64(r.Intn(3))
				at, q = chaosAt, &c.chaos
			case k < 6:
				if len(timed) > 0 {
					timed[r.Intn(len(timed))].state = jsDone
				}
				continue
			default:
				want, ok := least()
				if !ok {
					if c.next() != math.MaxUint64 {
						t.Fatalf("seed %d op %d: empty sources report next %d", seed, op, c.next())
					}
					continue
				}
				if got := c.next(); got != want.at {
					t.Fatalf("seed %d op %d: next = %d, want %d", seed, op, got, want.at)
				}
				if got := c.pop(); got != want.val {
					t.Fatalf("seed %d op %d: popped entry %d, want %d (cycle %d, seq %d)", seed, op, got.aux, want.val.aux, want.at, want.tie)
				}
				continue
			}
			tie := c.stamp()
			ev := ctlEvent{aux: tie}
			switch q {
			case nil:
				c.events.push(at, tie, ev)
			case &c.timers:
				// A timer guards a waiting or running job under its
				// attempt; one in four is armed for an earlier attempt.
				j := &JobRecord{state: []uint8{jsWaiting, jsRunning}[r.Intn(2)], Attempts: int32(tie)}
				if r.Intn(4) == 0 {
					j.Attempts++
				}
				ev = ctlEvent{kind: evAbandon, j: j, aux: tie}
				timed = append(timed, j)
				q.push(at, tie, ev)
			default:
				q.push(at, chaosTie, ev)
				ref.push(at, math.MinInt+tie, ev)
				continue
			}
			ref.push(at, tie, ev)
		}
		for want, ok := least(); ok; want, ok = least() {
			if got := c.pop(); got != want.val {
				t.Fatalf("seed %d drain: popped entry %d, want %d", seed, got.aux, want.val.aux)
			}
		}
		if c.next() != math.MaxUint64 {
			t.Fatalf("seed %d: next = %d after the drain", seed, c.next())
		}
		if n := len(c.events.v) + c.timers.len() + c.chaos.len(); n != 0 {
			t.Fatalf("seed %d: %d events left after the drain", seed, n)
		}
	}
}

// TestScaleTickCountsQueuedEvents pins the autoscaler's disarm check
// to all three control sources. The roster is down with every job
// queued, so a tick finds nothing to provision or release, and no
// arrival, flight or heap event is pending: a pending chaos restore or
// abandon timer alone must keep the tick armed (either can still move
// the queue), and with neither the tick must disarm so the loop
// reports its stall.
func TestScaleTickCountsQueuedEvents(t *testing.T) {
	p := testPipeline(t)
	for _, tc := range []struct {
		name  string
		queue func(c *loopCtl)
		armed bool
	}{
		{"nothing pending", func(*loopCtl) {}, false},
		{"chaos restore", func(c *loopCtl) {
			c.chaos.push(50_000, c.stamp(), ctlEvent{kind: evRestore, aux: 0})
		}, true},
		{"abandon timer", func(c *loopCtl) {
			j := &c.l.arr[0]
			c.timers.push(50_000, c.stamp(), ctlEvent{kind: evAbandon, j: j, aux: int(j.Attempts)})
		}, true},
	} {
		f, err := New(Config{
			Devices: homo(p, 2), NC: 2, Policy: sched.ILPSMRA, Engine: Modeled,
			Chaos:     ChaosConfig{Enabled: true, Trace: []ChaosEvent{{Cycle: 0, Device: 0, Kind: ChaosFail}}},
			Autoscale: AutoscaleConfig{Enabled: true, Min: 2, Epoch: 10_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := f.resolve(testArrivals(t, 4, 1))
		if err != nil {
			t.Fatal(err)
		}
		l := f.newLoop(jobs, nil)
		c := l.ctl
		c.pop() // the configured failure, which the test applies below
		for i := range l.arr {
			l.arr[i].state = jsWaiting
			l.queue.insert(&l.arr[i])
		}
		l.nextArr = len(l.arr)
		c.chaosFail(0)
		c.chaosFail(1)
		c.scaleArmed = true
		tc.queue(c)
		c.scaleTick(10_000)
		if c.scaleArmed != tc.armed {
			t.Errorf("%s: tick armed = %v, want %v", tc.name, c.scaleArmed, tc.armed)
		}
		ticks := 0
		if tc.armed {
			ticks = 1
		}
		if len(c.events.v) != ticks {
			t.Errorf("%s: %d heap events after the tick, want %d", tc.name, len(c.events.v), ticks)
		}
	}
}

// TestOutageScaleTicks runs a whole-roster outage under the
// autoscaler: two devices, sixteen arrivals, both devices failed at the
// fifth arrival and restored at cycle R. While the roster is down a
// scale tick has nothing to provision, so it re-arms at the restore,
// and the run stamps a handful of control events however long the
// outage lasts. The bound fails for a tick per 65,536-cycle epoch,
// which stamps about 15,000 events at R = 1e9 and would tick for a
// quarter of an hour at R = 1e15.
func TestOutageScaleTicks(t *testing.T) {
	p := testPipeline(t)
	arr := testArrivals(t, 16, 1)
	for _, restore := range []uint64{1e9, 1e15} {
		f, err := New(Config{
			Devices: homo(p, 2), NC: 2, Policy: sched.ILP, Engine: Modeled,
			Autoscale: AutoscaleConfig{Enabled: true, Min: 2, Max: 2},
			Chaos: ChaosConfig{Enabled: true, Trace: []ChaosEvent{
				{Cycle: arr[4].Cycle, Device: 0, Kind: ChaosFail},
				{Cycle: arr[4].Cycle, Device: 1, Kind: ChaosFail},
				{Cycle: restore, Device: 0, Kind: ChaosRestore},
				{Cycle: restore, Device: 1, Kind: ChaosRestore},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		l, res, err := runLoop(t, f, arr, nil)
		if err != nil {
			t.Fatalf("R = %d: %v", restore, err)
		}
		if done := res.CompletedJobs(); done != len(arr) {
			t.Errorf("R = %d: %d of %d jobs completed", restore, done, len(arr))
		}
		if res.Makespan < restore {
			t.Errorf("R = %d: makespan %d ends before the restore", restore, res.Makespan)
		}
		if l.ctl.seq > 32 {
			t.Fatalf("R = %d: %d control events stamped, want at most 32", restore, l.ctl.seq)
		}
		t.Logf("R = %d: %d control events stamped", restore, l.ctl.seq)
	}
}

// controlLoad is a Modeled closed loop on n test devices with every
// control surface live: timeouts, retries, admission, the autoscaler
// from half the roster, and generated chaos up to horizon.
func controlLoad(tb testing.TB, n, clients, requests int, horizon uint64) Config {
	return Config{
		Devices: homo(testPipeline(tb), n), NC: 2, Policy: sched.ILPSMRA, Engine: Modeled,
		SLO: SLOConfig{Enabled: true},
		Closed: ClosedConfig{
			Enabled: true, Clients: clients, Requests: requests,
			Think: 20_000, Timeout: 40_000, Retries: 2, LatencyFrac: 0.2,
			Seed: 1, Universe: testNames(),
		},
		Admission: AdmissionConfig{Enabled: true, MaxWait: 60_000},
		Autoscale: AutoscaleConfig{Enabled: true, Min: n / 2, High: 1},
		Chaos:     ChaosConfig{Enabled: true, MTBF: 2e6, MTTR: 2e5, Horizon: horizon, Seed: 1},
	}
}

// checkControlsAct fails unless the run abandoned, retried, provisioned
// and failed something, so a controlLoad measurement covers every
// control path.
func checkControlsAct(tb testing.TB, res Result) {
	tb.Helper()
	if res.Abandoned == 0 || res.Retried == 0 || res.Provisions == 0 || res.Failures == 0 {
		tb.Fatalf("abandoned/retried/provisions/failures = %d/%d/%d/%d; every control surface must act",
			res.Abandoned, res.Retried, res.Provisions, res.Failures)
	}
}

// BenchmarkClosedLoop is the control path's event-loop rung: one
// controlLoad run per op on 8 test devices, 32 clients of 64 requests
// each, so abandon timers, backoff retries, scale ticks, provisions and
// outages all pass through the control block. It reports
// ns/submission beside B/op.
func BenchmarkClosedLoop(b *testing.B) {
	f, err := New(controlLoad(b, 8, 32, 64, 2e7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	submissions := 0
	for i := 0; i < b.N; i++ {
		res, err := f.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		checkControlsAct(b, res)
		submissions += res.Submitted
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(submissions), "ns/submission")
}
