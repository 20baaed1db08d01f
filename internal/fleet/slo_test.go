package fleet

import (
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/interference"
	"repro/internal/match"
	"repro/internal/sched"
	"repro/internal/stats"
)

// sloArrivals is the shared SLO-ablation stream: a saturating Poisson
// mix over the mini universe with 40% latency jobs on a deadline tight
// enough that a congested 2-device fleet misses it without preemption.
// The class draws are independent of the time/name draws, so this is
// the *same traffic* the class-blind runs see.
func sloArrivals(t *testing.T) []Arrival {
	t.Helper()
	arr, err := ArrivalConfig{
		Kind: Poisson, Jobs: 24, Rate: 2, Seed: 5,
		LatencyFrac: 0.4, Deadline: 60_000,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func runSLO(t *testing.T, arr []Arrival, cfg Config) Result {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPreemptionLowersMissRate is the headline SLO property (and the
// fleet-scale version of the FleetSLO experiments scenario's
// acceptance): on the same seed and trace, enabling preemption strictly
// lowers the latency-class deadline-miss rate versus SLO-aware dispatch
// alone, at some recorded batch cost.
func TestPreemptionLowersMissRate(t *testing.T) {
	p := testPipeline(t)
	arr := sloArrivals(t)
	base := runSLO(t, arr, Config{Devices: homo(p, 2), NC: 2, Policy: sched.ILP,
		SLO: SLOConfig{Enabled: true}})
	pre := runSLO(t, arr, Config{Devices: homo(p, 2), NC: 2, Policy: sched.ILP,
		SLO: SLOConfig{Enabled: true, Preempt: true}})

	baseStats, preStats := base.Stats(), pre.Stats()
	if baseStats.Misses == 0 {
		t.Fatal("ablation is vacuous: no deadline misses without preemption")
	}
	if len(pre.Evictions) == 0 {
		t.Fatal("preemption enabled but nothing was ever evicted")
	}
	if preStats.MissRate >= baseStats.MissRate {
		t.Fatalf("preemption did not lower the miss rate: %.3f -> %.3f",
			baseStats.MissRate, preStats.MissRate)
	}
	// Both runs account every job, including the evicted-and-rerun ones.
	if len(base.Jobs) != len(arr) || len(pre.Jobs) != len(arr) {
		t.Fatalf("jobs accounted: base %d, preempt %d, want %d", len(base.Jobs), len(pre.Jobs), len(arr))
	}
	evicted := 0
	for _, j := range pre.Jobs {
		evicted += int(j.Evictions)
		if j.Complete <= j.Dispatch {
			t.Errorf("job %d complete %d not after dispatch %d", j.ID, j.Complete, j.Dispatch)
		}
	}
	want := 0
	for _, e := range pre.Evictions {
		want += len(e.Jobs)
		if e.Wasted == 0 {
			t.Errorf("eviction at %d wasted no cycles: %v", e.Cycle, e)
		}
	}
	if evicted != want {
		t.Errorf("per-job eviction counts sum to %d, records say %d", evicted, want)
	}
	// The summary carries the per-class block for both runs.
	for _, s := range []string{base.Summary(), pre.Summary()} {
		for _, field := range []string{"latency wait", "latency slack", "batch turnaround", "deadline-miss", "evictions"} {
			if !strings.Contains(s, field) {
				t.Fatalf("summary missing %q:\n%s", field, s)
			}
		}
	}
}

// TestPreemptionDeterminism extends the reproducibility contract to the
// eviction path: same seed, same config — byte-identical summaries and
// byte-identical eviction/re-dispatch traces.
func TestPreemptionDeterminism(t *testing.T) {
	p := testPipeline(t)
	arr := sloArrivals(t)
	var summaries, traces []string
	for i := 0; i < 2; i++ {
		res := runSLO(t, arr, Config{Devices: homo(p, 2), NC: 2, Policy: sched.ILP,
			SLO: SLOConfig{Enabled: true, Preempt: true}})
		summaries = append(summaries, res.Summary())
		traces = append(traces, res.EvictionTrace())
	}
	if traces[0] == "" {
		t.Fatal("golden is vacuous: no evictions happened")
	}
	if traces[0] != traces[1] {
		t.Fatalf("eviction traces differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", traces[0], traces[1])
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("summaries differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", summaries[0], summaries[1])
	}
}

// TestSLOPriorityDispatch checks the queue discipline without
// preemption: under SLO-aware dispatch a latency job arriving behind a
// pile of batch work queues ahead of it and must wait no longer than it
// would under class-blind dispatch.
func TestSLOPriorityDispatch(t *testing.T) {
	p := testPipeline(t)
	var arr []Arrival
	for i := 0; i < 8; i++ {
		arr = append(arr, Arrival{Name: testNames()[i%4], Cycle: uint64(i)})
	}
	arr = append(arr, Arrival{Name: "miniA", Cycle: 8, SLO: Latency, Deadline: 300_000})
	blind := runSLO(t, arr, Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP})
	aware := runSLO(t, arr, Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP,
		SLO: SLOConfig{Enabled: true}})
	id := len(arr) - 1
	if aware.Jobs[id].Dispatch > blind.Jobs[id].Dispatch {
		t.Fatalf("SLO-aware dispatch delayed the latency job: %d > %d",
			aware.Jobs[id].Dispatch, blind.Jobs[id].Dispatch)
	}
	// It must be the first job dispatched once a device frees after its
	// arrival: no batch job that arrived before it and was still waiting
	// may dispatch strictly earlier.
	for _, j := range aware.Jobs[:id] {
		if j.Dispatch > aware.Jobs[id].Arrival && j.Dispatch < aware.Jobs[id].Dispatch {
			t.Fatalf("batch job %d dispatched at %d ahead of the waiting latency job (dispatched %d)",
				j.ID, j.Dispatch, aware.Jobs[id].Dispatch)
		}
	}
}

// TestAgingImprovesStarvedP99 exercises the aging term of the windowed
// ILP. The traffic is round-structured: each round leads with a C job
// and an MC job, then floods with fresh C/A work while the device is
// still draining the previous round. On the mini universe's matrix MC
// is every class's least attractive partner (C-A pairs at 0.78, C-MC at
// 0.63), so the packing-optimal matcher keeps choosing the fresh C/A
// arrivals and the MC straggler waits until it reaches the queue head —
// the jobs this test calls starved. With aging on, a pattern containing
// the long-waiting MC class outbids the marginally better-packing one
// and the starved jobs' tail wait drops.
func TestAgingImprovesStarvedP99(t *testing.T) {
	p := testPipeline(t)
	var arr []Arrival
	for r := 0; r < 6; r++ {
		base := uint64(r) * 60_000
		arr = append(arr,
			Arrival{Name: "miniC", Cycle: base},
			Arrival{Name: "miniMC", Cycle: base + 1_000},
			Arrival{Name: "miniA", Cycle: base + 30_000},
			Arrival{Name: "miniC", Cycle: base + 32_000},
			Arrival{Name: "miniA", Cycle: base + 34_000},
			Arrival{Name: "miniC", Cycle: base + 36_000},
		)
	}
	starvedWaits := func(res Result) []float64 {
		var out []float64
		for _, j := range res.Jobs {
			if j.Name == "miniMC" {
				out = append(out, float64(j.Wait())/1000)
			}
		}
		return out
	}
	plain := runSLO(t, arr, Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP})
	aged := runSLO(t, arr, Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP, Aging: 2})
	sPlain := stats.Summarize(starvedWaits(plain))
	sAged := stats.Summarize(starvedWaits(aged))
	if sPlain.N == 0 {
		t.Fatal("no starved-class jobs in the stream")
	}
	if sAged.P99 >= sPlain.P99 {
		t.Fatalf("aging did not improve starved p99 wait: %.1f -> %.1f kcycles", sPlain.P99, sAged.P99)
	}
	if sAged.Mean >= sPlain.Mean {
		t.Fatalf("aging did not improve starved mean wait: %.1f -> %.1f kcycles", sPlain.Mean, sAged.Mean)
	}
}

// TestWindowForAdaptive pins the adaptive window policy: a set Window
// wins unconditionally; otherwise the window stays inside
// [MinWindow, MaxWindow] and a uniform class mix earns a wider window
// than a degenerate one at the same depth.
func TestWindowForAdaptive(t *testing.T) {
	p := testPipeline(t)
	f, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP, Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	mkQueue := func(names []string, n int) *jobQueue {
		var arr []Arrival
		for i := 0; i < n; i++ {
			arr = append(arr, Arrival{Name: names[i%len(names)], Cycle: uint64(i)})
		}
		jobs, err := f.resolve(arr)
		if err != nil {
			t.Fatal(err)
		}
		q := &jobQueue{apps: f.apps}
		for i := range jobs {
			q.insert(&jobs[i])
		}
		return q
	}
	mixed := mkQueue(testNames(), 64)
	if got := f.windowFor(mixed, 0); got != 5 {
		t.Fatalf("pinned window = %d, want 5", got)
	}
	f2, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 16, 64, 200} {
		w := f2.windowFor(mkQueue(testNames(), n), 0)
		if w < MinWindow || w > MaxWindow {
			t.Fatalf("adaptive window %d for depth %d outside [%d, %d]", w, n, MinWindow, MaxWindow)
		}
	}
	deep := 64
	uniform := f2.windowFor(mkQueue(testNames(), deep), 0)
	degenerate := f2.windowFor(mkQueue([]string{"miniA"}, deep), 0)
	if uniform <= degenerate {
		t.Fatalf("uniform mix window %d not wider than one-class window %d", uniform, degenerate)
	}
}

// refWorstSlow is the preemption test's pessimistic co-run factor as
// coRunCycles used to compute it on every call: NC-1 partners of one
// class, for every partner class, taking the largest slowdown (at
// least 1).
func refWorstSlow(m *interference.Matrix, cls classify.Class, nc int) float64 {
	worst := 1.0
	for c := classify.Class(0); c < classify.NumClasses; c++ {
		p := make(match.Pattern, nc)
		p[0] = cls
		for i := 1; i < nc; i++ {
			p[i] = c
		}
		if s := match.MemberSlowdown(m, p, 0); s > worst {
			worst = s
		}
	}
	return worst
}

// TestCoRunCyclesTable checks the worst-slowdown table New builds
// against the per-call scan it replaced, for every device type and
// class at NC 2 and 3, and that the preemption estimate reading it
// allocates nothing.
func TestCoRunCyclesTable(t *testing.T) {
	small, tiny := testPipeline(t), pipelineFor(t, tinyConfig())
	for _, nc := range []int{2, 3} {
		f, err := New(Config{
			Devices: []DeviceSpec{{Pipe: small, Count: 1}, {Pipe: tiny, Count: 1}},
			NC:      nc, Policy: sched.ILP, Engine: Modeled,
		})
		if err != nil {
			t.Fatal(err)
		}
		var arr []Arrival
		for _, n := range testNames() {
			arr = append(arr, Arrival{Name: n})
		}
		jobs, err := f.resolve(arr)
		if err != nil {
			t.Fatal(err)
		}
		for ty, pipe := range f.types {
			for cls := classify.Class(0); cls < classify.NumClasses; cls++ {
				if got, want := f.worstSlow[ty][cls], refWorstSlow(pipe.Matrix(), cls, nc); got != want {
					t.Errorf("nc=%d type %d class %v: table %v, scan %v", nc, ty, cls, got, want)
				}
			}
			for i := range jobs {
				j := &jobs[i]
				solo, ok := f.soloCycles(j, ty, nil)
				got, gotOK := f.coRunCycles(j, ty, nil)
				want := uint64(float64(solo) * refWorstSlow(pipe.Matrix(), f.class(j, ty), nc))
				if !ok || !gotOK || got != want {
					t.Errorf("nc=%d type %d %s: coRunCycles %d (%v), want %d", nc, ty, j.Name, got, gotOK, want)
				}
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { f.coRunCycles(&jobs[0], 1, nil) }); allocs != 0 {
			t.Fatalf("nc=%d: coRunCycles allocates %.1f times per call, want 0", nc, allocs)
		}
	}
}

// TestSLOValidation rejects impossible SLO and aging configurations and
// mistagged traces.
func TestSLOValidation(t *testing.T) {
	p := testPipeline(t)
	bad := []Config{
		{Devices: homo(p, 1), NC: 2, Policy: sched.FCFS, SLO: SLOConfig{Preempt: true}},
		{Devices: homo(p, 1), NC: 2, Policy: sched.ILP, Aging: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Trace arrivals must be tagged consistently.
	names := testNames()
	for _, trace := range [][]Arrival{
		{{Name: "miniA", Cycle: 0, SLO: Latency}},                // latency without deadline
		{{Name: "miniA", Cycle: 0, SLO: Batch, Deadline: 1_000}}, // batch with deadline
	} {
		if _, err := (ArrivalConfig{Kind: Trace, Trace: trace}).Generate(names); err == nil {
			t.Errorf("mistagged trace accepted: %+v", trace)
		}
	}
	if _, err := (ArrivalConfig{Kind: Trace, LatencyFrac: 0.5,
		Trace: []Arrival{{Name: "miniA", Cycle: 0}}}).Generate(names); err == nil {
		t.Error("LatencyFrac accepted alongside an explicit trace")
	}
	if _, err := (ArrivalConfig{Kind: Trace, Deadline: 100_000,
		Trace: []Arrival{{Name: "miniA", Cycle: 0}}}).Generate(names); err == nil {
		t.Error("config-level Deadline accepted alongside an explicit trace")
	}
	if _, err := (ArrivalConfig{Kind: Poisson, Jobs: 4, Rate: 1, LatencyFrac: 1.5}).Generate(names); err == nil {
		t.Error("LatencyFrac outside [0,1] accepted")
	}
}

// TestSLOTaggingKeepsTraffic asserts the ablation contract of the
// arrival generator: sweeping the class mix never perturbs the arrival
// times or names, so SLO comparisons see identical traffic.
func TestSLOTaggingKeepsTraffic(t *testing.T) {
	gen := func(frac float64) []Arrival {
		arr, err := ArrivalConfig{Kind: Poisson, Jobs: 32, Rate: 1, Seed: 11,
			LatencyFrac: frac}.Generate(testNames())
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	plain, tagged := gen(0), gen(0.5)
	latency := 0
	for i := range plain {
		if plain[i].Cycle != tagged[i].Cycle || plain[i].Name != tagged[i].Name {
			t.Fatalf("tagging changed traffic at %d: %+v vs %+v", i, plain[i], tagged[i])
		}
		if plain[i].SLO != Batch || plain[i].Deadline != 0 {
			t.Fatalf("frac 0 stream has a tagged arrival: %+v", plain[i])
		}
		if tagged[i].SLO == Latency {
			latency++
			if tagged[i].Deadline != DefaultDeadline {
				t.Fatalf("latency arrival %d has deadline %d, want default %d",
					i, tagged[i].Deadline, DefaultDeadline)
			}
		}
	}
	if latency == 0 || latency == len(tagged) {
		t.Fatalf("latency share %d of %d is degenerate", latency, len(tagged))
	}
}

// TestFirstToFreeCache makes each write the preemption scan reads —
// flights placed, a Cycle flight resolving, a device draining and
// restoring, a retire, an eviction and a device failure — and checks
// after each that the epoch-cached answer equals a fresh scan, and that
// admission's predicted wait, which reads the cached answer, equals the
// wait priced from the fresh scan. Each write is chosen to change that
// answer, so a write that skipped its epoch bump would leave the cache
// stale and fail here.
func TestFirstToFreeCache(t *testing.T) {
	for _, engine := range []EngineMode{Modeled, Cycle} {
		t.Run(engine.String(), func(t *testing.T) {
			f, err := New(Config{
				Devices: []DeviceSpec{{Pipe: testPipeline(t), Count: 2}, {Pipe: pipelineFor(t, tinyConfig()), Count: 2}},
				NC:      2, Policy: sched.ILPSMRA, Engine: engine,
				SLO: SLOConfig{Enabled: true, Preempt: true},
				// One far-off event only turns the control block on.
				Chaos: ChaosConfig{Enabled: true, Trace: []ChaosEvent{{Cycle: 1 << 40, Device: 0, Kind: ChaosRestore}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := f.resolve(testArrivals(t, 16, 3))
			if err != nil {
				t.Fatal(err)
			}
			l := f.newLoop(jobs, nil)
			defer l.wait()
			prev, prevFree := l.firstToFree()
			// step checks the cache against a fresh scan after a write
			// and reports whether the write moved the answer; must says
			// it has to, or the step would test nothing.
			step := func(name string, must bool) bool {
				t.Helper()
				// The wait is read before anything refreshes the cache.
				gotWait := l.ctl.predictedWait(l.now)
				got, gotFree := l.firstToFree()
				want, wantFree := l.scanFirstToFree()
				if got != want || gotFree != wantFree {
					t.Fatalf("after %s: cached first-to-free %p at %d, fresh scan %p at %d", name, got, gotFree, want, wantFree)
				}
				var wantWait uint64
				if len(l.idleDevs.v) == 0 {
					if wantFree != inf && wantFree > l.now {
						wantWait = wantFree - l.now
					}
					if up := l.ctl.upActive(); up > 0 {
						wantWait += l.queue.work / uint64(up)
					}
				}
				if gotWait != wantWait {
					t.Fatalf("after %s: predicted wait %d, from a fresh scan %d", name, gotWait, wantWait)
				}
				moved := want != prev || wantFree != prevFree
				if must && !moved {
					t.Fatalf("after %s: first-to-free unchanged (%p at %d); the step tests nothing", name, want, wantFree)
				}
				prev, prevFree = want, wantFree
				return moved
			}
			for i := range jobs {
				l.queue.insert(&jobs[i])
			}
			if err := l.dispatch(); err != nil {
				t.Fatal(err)
			}
			step("dispatch", true)
			// Draining the first device to free leaves a Cycle run's
			// next pending flight first, whose estimate its resolve
			// then replaces.
			drained, _ := l.firstToFree()
			l.ctl.chaosDrain(drained.device)
			step("drain", true)
			resolvesMoved := false
			for fl := l.unresolved.peek(); fl != nil; fl = l.unresolved.peek() {
				if err := l.await(fl); err != nil {
					t.Fatal(err)
				}
				resolvesMoved = step("resolve", false) || resolvesMoved
			}
			if engine == Cycle && !resolvesMoved {
				t.Fatal("no resolve moved first-to-free; the resolve steps test nothing")
			}
			l.ctl.chaosRestore(drained.device)
			step("restore", true)
			first, _ := l.firstToFree()
			root := l.resolved.peek()
			l.advance(root.complete)
			l.retire(root)
			step("retire", root == first)
			if err := l.dispatch(); err != nil {
				t.Fatal(err)
			}
			step("dispatch onto the freed device", false)
			first, _ = l.firstToFree()
			l.release(first, 0)
			step("evict", true)
			first, _ = l.firstToFree()
			l.ctl.chaosFail(first.device)
			step("fail", true)
		})
	}
}
