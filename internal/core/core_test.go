package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/interference"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/testkit"
)

func initPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p := MustNew(testkit.Config())
	if err := p.Init(testkit.Universe()); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineInitClassifiesAndMeasures(t *testing.T) {
	p := initPipeline(t)
	if len(p.Profiles()) != 4 {
		t.Fatalf("profiles = %d, want 4", len(p.Profiles()))
	}
	for name, class := range p.Classes() {
		t.Logf("%s -> class %s", name, class)
	}
	m := p.Matrix()
	t.Logf("\n%s", m)
	// Co-running on half the device is at best mildly super-linear for
	// tiny low-parallelism kernels; anything below this bound indicates
	// broken accounting rather than scheduling behaviour.
	for a := range m.Slowdown {
		for b := range m.Slowdown[a] {
			if m.Samples[a][b] > 0 && m.Slowdown[a][b] <= 0.75 {
				t.Fatalf("slowdown[%d][%d] = %v, implausibly fast", a, b, m.Slowdown[a][b])
			}
		}
	}
}

func TestPipelineQueueUnknownApp(t *testing.T) {
	p := initPipeline(t)
	if _, err := p.Queue([]string{"nope"}); err == nil {
		t.Fatal("expected error for unknown application")
	}
}

func TestPipelineRunAllPolicies(t *testing.T) {
	p := initPipeline(t)
	queue, err := p.Queue([]string{"miniM", "miniA", "miniC", "miniMC"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []sched.Policy{sched.Serial, sched.FCFS, sched.ProfileBased, sched.ILP, sched.ILPSMRA} {
		rep, err := p.Run(queue, 2, pol)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if rep.Throughput() <= 0 {
			t.Fatalf("%v: zero throughput", pol)
		}
		var want uint64
		for _, a := range p.Apps() {
			want += a.TotalInstrs() * uint64(p.Config().WarpSize)
		}
		if rep.ThreadInstructions != want {
			t.Fatalf("%v: instructions %d, want %d (every app must fully retire)", pol, rep.ThreadInstructions, want)
		}
		t.Logf("%-14v throughput=%.1f cycles=%d groups=%d", pol, rep.Throughput(), rep.TotalCycles, len(rep.Groups))
	}
}

func TestPipelineSerialSlowerThanCoRun(t *testing.T) {
	p := initPipeline(t)
	queue, err := p.Queue([]string{"miniM", "miniA", "miniC", "miniMC"})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := p.Run(queue, 1, sched.Serial)
	if err != nil {
		t.Fatal(err)
	}
	ilp, err := p.Run(queue, 2, sched.ILP)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serial=%d cycles, ilp=%d cycles", serial.TotalCycles, ilp.TotalCycles)
	if ilp.TotalCycles >= serial.TotalCycles {
		t.Errorf("co-scheduling (%d cycles) should beat serial (%d cycles) on underutilized kernels",
			ilp.TotalCycles, serial.TotalCycles)
	}
}

// TestInitDeterministicAcrossGOMAXPROCS pins Init's shared solo and pair
// pool against scheduling order: calibrating on one thread and on four
// must save byte-identical files, and Init's matrix must equal the one
// interference.Compute builds on its own.
func TestInitDeterministicAcrossGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	var files [][]byte
	var p *Pipeline
	for _, procs := range []int{1, 4} {
		p = initPipelineAt(t, procs)
		path := filepath.Join(dir, "cal.json")
		if err := p.SaveCalibration(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("calibration at GOMAXPROCS(1) and GOMAXPROCS(4) differ")
	}
	cfg := testkit.Config()
	m, err := interference.Compute(cfg, profile.New(cfg), p.Classes(), testkit.Universe())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, p.Matrix()) {
		t.Fatalf("Init matrix\n%s differs from interference.Compute\n%s", p.Matrix(), m)
	}
}

func initPipelineAt(t *testing.T, procs int) *Pipeline {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return initPipeline(t)
}
