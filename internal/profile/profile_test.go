package profile

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/testkit"
)

func TestRunProducesMetricsAndMemoizes(t *testing.T) {
	p := New(testkit.Config())
	r1, err := p.Run(testkit.MiniA(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.IPC <= 0 || r1.Cycles == 0 {
		t.Fatalf("degenerate profile: %+v", r1)
	}
	if r1.NumSMs != testkit.Config().NumSMs {
		t.Fatalf("NumSMs = %d", r1.NumSMs)
	}
	r2, err := p.Run(testkit.MiniA(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("memoized run differs")
	}
}

func TestRunAtReducedSMCount(t *testing.T) {
	p := New(testkit.Config())
	full, err := p.Run(testkit.MiniA(), 0)
	if err != nil {
		t.Fatal(err)
	}
	half, err := p.Run(testkit.MiniA(), testkit.Config().NumSMs/2)
	if err != nil {
		t.Fatal(err)
	}
	if half.NumSMs != testkit.Config().NumSMs/2 {
		t.Fatalf("NumSMs = %d", half.NumSMs)
	}
	// A parallel compute kernel must lose IPC with half the cores.
	if half.IPC >= full.IPC {
		t.Fatalf("IPC did not drop with fewer SMs: full=%v half=%v", full.IPC, half.IPC)
	}
}

// TestRunAllOrderPreserved checks that the pooled RunAll returns, in
// list order, exactly what sequential Run calls on a fresh profiler
// return, at the full and at a reduced core count.
func TestRunAllOrderPreserved(t *testing.T) {
	p := New(testkit.Config())
	apps := testkit.Universe()
	for _, numSMs := range []int{0, testkit.Config().NumSMs / 2} {
		rs, err := p.RunAll(apps, numSMs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(apps) {
			t.Fatalf("%d SMs: results = %d", numSMs, len(rs))
		}
		seq := New(testkit.Config())
		for i := range rs {
			if rs[i].Name != apps[i].Name {
				t.Fatalf("%d SMs: order broken at %d: %s vs %s", numSMs, i, rs[i].Name, apps[i].Name)
			}
			want, err := seq.Run(apps[i], numSMs)
			if err != nil {
				t.Fatal(err)
			}
			if rs[i] != want {
				t.Fatalf("%d SMs: RunAll[%d] = %+v, sequential Run = %+v", numSMs, i, rs[i], want)
			}
		}
	}
}

func TestRunInvalidKernel(t *testing.T) {
	p := New(testkit.Config())
	if _, err := p.Run(kernel.Params{Name: "bad"}, 0); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}
