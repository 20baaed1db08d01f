package fleet

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/testkit"
)

// pipes shares calibrated pipelines across tests, keyed by config name
// and built lazily so a targeted `go test -run` only pays for the
// device configs it touches. Package tests run sequentially (none call
// t.Parallel), so a plain map with a mutex suffices.
var (
	pipeMu sync.Mutex
	pipes  = map[string]*core.Pipeline{}
)

// pipelineFor initializes (once, shared across tests) a pipeline for
// one device configuration over the miniature testkit universe — the
// expensive part of every fleet test. The mini kernels are small enough
// that even the full 60-SM device calibrates in well under a second.
func pipelineFor(t testing.TB, cfg config.GPUConfig) *core.Pipeline {
	t.Helper()
	pipeMu.Lock()
	defer pipeMu.Unlock()
	if p, ok := pipes[cfg.Name]; ok {
		return p
	}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Init(testkit.Universe()); err != nil {
		t.Fatal(err)
	}
	pipes[cfg.Name] = p
	return p
}

// testPipeline returns the default (Small-8SM) test pipeline.
func testPipeline(t testing.TB) *core.Pipeline {
	return pipelineFor(t, testkit.Config())
}

// tinyConfig is a second, slower device generation for heterogeneous
// tests: half the SMs of the Small test device.
func tinyConfig() config.GPUConfig {
	c := config.Small()
	c.Name = "Tiny-4SM"
	c.NumSMs = 4
	return c
}

// homo wraps the single-type roster the pre-heterogeneity tests used.
func homo(pipe *core.Pipeline, count int) []DeviceSpec {
	return []DeviceSpec{{Pipe: pipe, Count: count}}
}

func testNames() []string {
	return []string{"miniM", "miniMC", "miniC", "miniA"}
}

func testArrivals(t *testing.T, jobs int, seed uint64) []Arrival {
	t.Helper()
	arr, err := ArrivalConfig{Kind: Poisson, Jobs: jobs, Rate: 2, Seed: seed}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestFleetRunAccountsEveryJob(t *testing.T) {
	p := testPipeline(t)
	f, err := New(Config{Devices: homo(p, 2), NC: 2, Policy: sched.ILP})
	if err != nil {
		t.Fatal(err)
	}
	arr := testArrivals(t, 12, 7)
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 12 {
		t.Fatalf("jobs = %d, want 12", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Dispatch < j.Arrival {
			t.Errorf("job %d dispatched at %d before arrival %d", j.ID, j.Dispatch, j.Arrival)
		}
		if j.Complete <= j.Dispatch {
			t.Errorf("job %d complete %d not after dispatch %d", j.ID, j.Complete, j.Dispatch)
		}
		if j.Device < 0 || j.Device >= 2 {
			t.Errorf("job %d on device %d", j.ID, j.Device)
		}
		if j.Complete > res.Makespan {
			t.Errorf("job %d completes at %d past makespan %d", j.ID, j.Complete, res.Makespan)
		}
	}
	if res.Groups == 0 || res.ThreadInstructions == 0 {
		t.Fatalf("empty accounting: %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %v", res.Throughput())
	}
}

// TestFleetDeterminism is the reproducibility contract: two runs with
// the same seed produce byte-identical summaries. The second run hits
// the scheduler's group memo everywhere the first one simulated, so
// this also checks warm and cold caches agree.
func TestFleetDeterminism(t *testing.T) {
	p := testPipeline(t)
	arr := testArrivals(t, 16, 3)
	var summaries []string
	for i := 0; i < 2; i++ {
		f, err := New(Config{Devices: homo(p, 3), NC: 2, Policy: sched.ILPSMRA})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary())
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("summaries differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", summaries[0], summaries[1])
	}
	// The SM-moves field is part of the stable summary shape, whatever
	// its value, so ILPSMRA and ILP outputs stay line-diffable.
	if !strings.Contains(summaries[0], "SM moves") {
		t.Fatalf("summary missing the SM moves field:\n%s", summaries[0])
	}
}

// TestFleetHeterogeneousDeterminism extends the reproducibility
// contract to mixed rosters: same seed + same roster (two device
// generations with independent calibrations) must give byte-identical
// summaries run to run.
func TestFleetHeterogeneousDeterminism(t *testing.T) {
	small := pipelineFor(t, testkit.Config())
	tiny := pipelineFor(t, tinyConfig())
	arr := testArrivals(t, 16, 9)
	var summaries []string
	for i := 0; i < 2; i++ {
		f, err := New(Config{
			Devices: []DeviceSpec{{Pipe: small, Count: 1}, {Pipe: tiny, Count: 2}},
			NC:      2,
			Policy:  sched.ILPSMRA,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary())
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("mixed-roster summaries differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", summaries[0], summaries[1])
	}
	for _, want := range []string{"1xSmall-8SM,2xTiny-4SM", "d0[Small-8SM]=", "d1[Tiny-4SM]=", "d2[Tiny-4SM]=", "SM moves"} {
		if !strings.Contains(summaries[0], want) {
			t.Fatalf("mixed-roster summary missing %q:\n%s", want, summaries[0])
		}
	}
}

// TestFleetHeterogeneousPlacement checks the structural pieces of
// placement-aware dispatch on a mixed roster: every job runs on a real
// device, device labels follow the roster, and the faster generation is
// offered work first when everything arrives at once.
func TestFleetHeterogeneousPlacement(t *testing.T) {
	small := pipelineFor(t, testkit.Config())
	tiny := pipelineFor(t, tinyConfig())
	f, err := New(Config{
		Devices: []DeviceSpec{{Pipe: tiny, Count: 1}, {Pipe: small, Count: 1}},
		NC:      2,
		Policy:  sched.FCFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The roster lists the slow device first, so placement order must
	// override roster order: with a single group of work, the faster
	// Small-8SM device (index 1) takes it.
	arr := []Arrival{{Name: "miniA", Cycle: 0}, {Name: "miniC", Cycle: 0}}
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Device != 1 {
			t.Errorf("job %d ran on device %d (%s), want the faster device 1",
				j.ID, j.Device, res.DeviceConfig[j.Device])
		}
	}
	if res.DeviceConfig[0] != "Tiny-4SM" || res.DeviceConfig[1] != "Small-8SM" {
		t.Fatalf("device configs = %v", res.DeviceConfig)
	}
}

// TestFleetRejectsMismatchedUniverses guards roster validation: device
// types calibrated over different application universes cannot form one
// fleet.
func TestFleetRejectsMismatchedUniverses(t *testing.T) {
	small := pipelineFor(t, testkit.Config())
	other, err := core.New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Init(testkit.Universe()[:2]); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Devices: []DeviceSpec{{Pipe: small, Count: 1}, {Pipe: other, Count: 1}},
		NC:      2,
		Policy:  sched.FCFS,
	})
	if err == nil {
		t.Fatal("accepted a roster with mismatched universes")
	}
}

// TestLowerBoundCyclesSound asserts the event loop's pipelining
// invariant on both device generations: for every universe member (and
// every pair), dispatch + lowerBoundCycles never exceeds the cycle the
// group actually completes at. This is the guard against the
// warp-vs-thread instruction unit trap — PeakIPC counts issue slots
// (warp instructions per cycle), so a bound computed from thread
// instructions would be ~WarpSize too high and the loop would commit to
// events that precede the group's real completion.
func TestLowerBoundCyclesSound(t *testing.T) {
	for _, cfg := range []config.GPUConfig{config.GTX480(), config.Small()} {
		p := pipelineFor(t, cfg)
		f, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.FCFS})
		if err != nil {
			t.Fatal(err)
		}
		names := testNames()
		for i := 0; i < len(names); i++ {
			for j := i - 1; j < len(names); j++ {
				var arr []Arrival
				if j < i {
					arr = []Arrival{{Name: names[i], Cycle: 0}} // solo
				} else {
					arr = []Arrival{{Name: names[i], Cycle: 0}, {Name: names[j], Cycle: 0}}
				}
				jobs, err := f.resolve(arr)
				if err != nil {
					t.Fatal(err)
				}
				members := make([]*JobRecord, len(jobs))
				for k := range jobs {
					members[k] = &jobs[k]
				}
				bound := f.lowerBoundCycles(members, 0)
				g := group(members, 0)
				for k, m := range members {
					if g[k].Arrival != m.ID || g[k].Params.Name != m.Name {
						t.Fatalf("group member %d is %s arriving at %d, want job %d (%s)", k, g[k].Params.Name, g[k].Arrival, m.ID, m.Name)
					}
				}
				rep, err := p.Scheduler().RunGroup(g, sched.FCFS)
				if err != nil {
					t.Fatal(err)
				}
				if bound > rep.Cycles {
					t.Errorf("%s: group %v bound %d exceeds actual completion %d",
						cfg.Name, arr, bound, rep.Cycles)
				}
				if bound == 0 {
					t.Errorf("%s: group %v has a vacuous zero bound", cfg.Name, arr)
				}
			}
		}
	}
}

// TestFleetSpeculationDoesNotChangeResults runs the same stream with
// and without speculative pre-simulation (forced on, since the test
// host may have one CPU): summaries must be byte-identical — the memo
// is keyed by group content and simulations are pure, so speculation
// can only move work in time.
func TestFleetSpeculationDoesNotChangeResults(t *testing.T) {
	p := testPipeline(t)
	arr := testArrivals(t, 16, 3)
	var summaries []string
	for _, spec := range []bool{false, true} {
		f, err := New(Config{Devices: homo(p, 3), NC: 2, Policy: sched.ILP, forceSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary())
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("speculation changed results:\n--- off ---\n%s--- on ---\n%s", summaries[0], summaries[1])
	}
}

func TestFleetSeedChangesArrivals(t *testing.T) {
	a1 := testArrivals(t, 16, 1)
	a2 := testArrivals(t, 16, 2)
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival streams")
	}
}

func TestFleetUsesAllDevices(t *testing.T) {
	p := testPipeline(t)
	f, err := New(Config{Devices: homo(p, 2), NC: 2, Policy: sched.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	// Everything arrives at once, so both devices must pick up work.
	var arr []Arrival
	for i := 0; i < 8; i++ {
		arr = append(arr, Arrival{Name: testNames()[i%4], Cycle: 0})
	}
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, j := range res.Jobs {
		used[j.Device] = true
	}
	if len(used) != 2 {
		t.Fatalf("devices used = %v, want both", used)
	}
	if res.DeviceBusy[0] == 0 || res.DeviceBusy[1] == 0 {
		t.Fatalf("device busy = %v", res.DeviceBusy)
	}
}

func TestFleetSerialRunsAlone(t *testing.T) {
	p := testPipeline(t)
	f, err := New(Config{Devices: homo(p, 1), NC: 3, Policy: sched.Serial})
	if err != nil {
		t.Fatal(err)
	}
	if f.Config().NC != 1 {
		t.Fatalf("serial NC = %d, want 1", f.Config().NC)
	}
	res, err := f.Run(testArrivals(t, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 6 {
		t.Fatalf("serial groups = %d, want one per job", res.Groups)
	}
}

// TestFleetDeepQueueUsesILP floods the queue so the windowed matcher,
// not the greedy path, forms groups.
func TestFleetDeepQueueUsesILP(t *testing.T) {
	p := testPipeline(t)
	f, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP})
	if err != nil {
		t.Fatal(err)
	}
	var arr []Arrival
	for i := 0; i < 12; i++ {
		arr = append(arr, Arrival{Name: testNames()[i%4], Cycle: 0})
	}
	res, err := f.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.ILPGroups == 0 {
		t.Fatalf("no ILP-formed groups in a deep queue: %+v", res)
	}
}

// TestFleetNC1CountsNoILPGroups pins the ILP policies at NC 1: a
// one-member group has no pattern to choose, so every dispatch counts
// as greedy, with aging on or off.
func TestFleetNC1CountsNoILPGroups(t *testing.T) {
	p := testPipeline(t)
	var arr []Arrival
	for i := 0; i < 24; i++ {
		arr = append(arr, Arrival{Name: testNames()[i%4], Cycle: uint64(i) * 1000})
	}
	for _, policy := range []sched.Policy{sched.ILP, sched.ILPSMRA} {
		for _, aging := range []float64{0, 1} {
			f, err := New(Config{Devices: homo(p, 2), NC: 1, Policy: policy, Engine: Modeled, Aging: aging})
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(arr)
			if err != nil {
				t.Fatal(err)
			}
			if res.GreedyGroups != res.Groups || res.ILPGroups != 0 {
				t.Errorf("%v aging=%g: groups %d = greedy %d + ilp %d, want every group greedy",
					policy, aging, res.Groups, res.GreedyGroups, res.ILPGroups)
			}
		}
	}
}

func TestFleetRejectsBadConfig(t *testing.T) {
	p := testPipeline(t)
	if _, err := New(Config{NC: 2, Policy: sched.FCFS}); err == nil {
		t.Fatal("accepted an empty roster")
	}
	if _, err := New(Config{Devices: homo(p, 0), NC: 2, Policy: sched.FCFS}); err == nil {
		t.Fatal("accepted a zero-count roster entry")
	}
	if _, err := New(Config{Devices: []DeviceSpec{{Pipe: nil, Count: 1}}, NC: 2, Policy: sched.FCFS}); err == nil {
		t.Fatal("accepted a nil pipeline")
	}
	if _, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.Policy(99)}); err == nil {
		t.Fatal("accepted unknown policy")
	}
	if _, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP, Window: -1}); err == nil {
		t.Fatal("accepted negative ILP window")
	}
	if _, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP, Window: MaxWindow + 1}); err == nil {
		t.Fatal("accepted an ILP window beyond MaxWindow")
	} else if !strings.Contains(err.Error(), strconv.Itoa(MaxWindow)) {
		t.Fatalf("window error %q does not name the cap %d", err, MaxWindow)
	}
	if _, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP, Window: MaxWindow}); err != nil {
		t.Fatalf("rejected a window at MaxWindow: %v", err)
	}
	if _, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.ILP, GreedyBelow: -1}); err == nil {
		t.Fatal("accepted negative greedy threshold")
	}
}

func TestFleetRejectsUnknownBenchmark(t *testing.T) {
	p := testPipeline(t)
	f, err := New(Config{Devices: homo(p, 1), NC: 2, Policy: sched.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run([]Arrival{{Name: "nope", Cycle: 0}}); err == nil {
		t.Fatal("accepted unknown benchmark")
	}
}

func TestSummaryMentionsEveryDevice(t *testing.T) {
	p := testPipeline(t)
	f, err := New(Config{Devices: homo(p, 2), NC: 2, Policy: sched.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(testArrivals(t, 6, 11))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	for _, want := range []string{"d0[Small-8SM]=", "d1[Small-8SM]=", "[2xSmall-8SM]", "throughput", "turnaround", "SM moves"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestParseRoster(t *testing.T) {
	entries, err := ParseRoster("2xGTX480, 2xSmall-8SM")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Count != 2 || entries[1].Count != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Name != "GTX480" || entries[1].Name != "Small-8SM" {
		t.Fatalf("entries = %+v", entries)
	}
	if _, err := ParseRoster("Small"); err != nil {
		t.Fatalf("bare name rejected: %v", err)
	}
	for _, bad := range []string{"", "0xGTX480", "2xNoSuchGPU", "GTX480,,Small"} {
		if _, err := ParseRoster(bad); err == nil {
			t.Fatalf("accepted roster %q", bad)
		}
	}
}
