package interference

import (
	"math"
	"testing"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/testkit"
)

func TestEvenSplitPartitions(t *testing.T) {
	cases := []struct{ sms, n int }{{60, 2}, {60, 3}, {8, 2}, {7, 2}, {10, 3}}
	for _, c := range cases {
		sets := EvenSplit(c.sms, c.n)
		if len(sets) != c.n {
			t.Fatalf("%d/%d: %d sets", c.sms, c.n, len(sets))
		}
		seen := map[int]bool{}
		total := 0
		for _, set := range sets {
			for _, sm := range set {
				if seen[sm] {
					t.Fatalf("%d/%d: SM %d duplicated", c.sms, c.n, sm)
				}
				seen[sm] = true
				total++
			}
		}
		if total != c.sms {
			t.Fatalf("%d/%d: covered %d SMs", c.sms, c.n, total)
		}
		// Balanced within one.
		for _, set := range sets {
			if len(set) < c.sms/c.n || len(set) > c.sms/c.n+1 {
				t.Fatalf("%d/%d: unbalanced set size %d", c.sms, c.n, len(set))
			}
		}
	}
}

func TestMatrixAtFallback(t *testing.T) {
	m := &Matrix{}
	if got := m.At(classify.ClassM, classify.ClassA); got != 2 {
		t.Fatalf("empty cell = %v, want neutral 2", got)
	}
	m.Slowdown[classify.ClassM][classify.ClassA] = 3.5
	m.Samples[classify.ClassM][classify.ClassA] = 2
	if got := m.At(classify.ClassM, classify.ClassA); got != 3.5 {
		t.Fatalf("cell = %v", got)
	}
}

func TestTripleSlowdownComposition(t *testing.T) {
	m := &Matrix{}
	for a := range m.Slowdown {
		for b := range m.Slowdown[a] {
			m.Slowdown[a][b] = 2
			m.Samples[a][b] = 1
		}
	}
	// No contention: pure parallelism loss of 3.
	if got := m.TripleSlowdown(classify.ClassA, classify.ClassA, classify.ClassA); math.Abs(got-3) > 1e-12 {
		t.Fatalf("neutral triple slowdown = %v, want 3", got)
	}
	m.Slowdown[classify.ClassC][classify.ClassM] = 4 // 2x contention from M
	got := m.TripleSlowdown(classify.ClassC, classify.ClassM, classify.ClassA)
	if math.Abs(got-6) > 1e-12 {
		t.Fatalf("one-hog triple slowdown = %v, want 6", got)
	}
	got = m.TripleSlowdown(classify.ClassC, classify.ClassM, classify.ClassM)
	if math.Abs(got-12) > 1e-12 {
		t.Fatalf("two-hog triple slowdown = %v, want 12", got)
	}
}

func TestCoRunValidation(t *testing.T) {
	cfg := testkit.Config()
	if _, err := CoRun(cfg, nil, nil); err == nil {
		t.Fatal("empty co-run accepted")
	}
	if _, err := CoRun(cfg, []kernel.Params{testkit.MiniA()}, [][]int{{0}, {1}}); err == nil {
		t.Fatal("mismatched SM sets accepted")
	}
}

// TestFRFCFSSpeedsMemoryCoRun contrasts the DRAM controller's FR-FCFS
// scheduling with plain FCFS under an M+C co-run, the mechanism behind
// class M's dominance in Fig 3.4: serving row hits first shortens the
// pair's makespan from 144,118 cycles to 79,896 on the testkit device.
func TestFRFCFSSpeedsMemoryCoRun(t *testing.T) {
	makespan := func(sched config.MemSchedPolicy) uint64 {
		cfg := testkit.Config()
		cfg.DRAM.Sched = sched
		sts, err := CoRun(cfg, []kernel.Params{testkit.MiniM(), testkit.MiniC()}, EvenSplit(cfg.NumSMs, 2))
		if err != nil {
			t.Fatal(err)
		}
		return max(sts[0].EndCycle, sts[1].EndCycle)
	}
	frfcfs, fcfs := makespan(config.MemFRFCFS), makespan(config.MemFCFS)
	ratio := float64(fcfs) / float64(frfcfs)
	t.Logf("M+C makespan: FR-FCFS %d cycles, FCFS %d (%.3fx)", frfcfs, fcfs, ratio)
	if ratio < 1.5 {
		t.Errorf("FCFS/FR-FCFS makespan = %.3f, want at least 1.5", ratio)
	}
}

func TestComputeMatrixOnMiniUniverse(t *testing.T) {
	cfg := testkit.Config()
	prof := profile.New(cfg)
	apps := testkit.Universe()
	classes := map[string]classify.Class{
		"miniM": classify.ClassM, "miniMC": classify.ClassMC,
		"miniC": classify.ClassC, "miniA": classify.ClassA,
	}
	m, err := Compute(cfg, prof, classes, apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pairs) != 6 {
		t.Fatalf("pairs = %d, want C(4,2)=6", len(m.Pairs))
	}
	// With one app per class, every cross-class cell has one sample.
	for a := range m.Samples {
		for b := range m.Samples[a] {
			if a == b {
				continue
			}
			if m.Samples[a][b] != 1 {
				t.Fatalf("cell [%d][%d] samples = %d", a, b, m.Samples[a][b])
			}
		}
	}
	// The memory hog must hurt the cache app more than the compute app
	// hurts it (the paper's central observation).
	hurtByM := m.At(classify.ClassC, classify.ClassM)
	hurtByA := m.At(classify.ClassC, classify.ClassA)
	t.Logf("C slowed by M: %.2f, by A: %.2f\n%s", hurtByM, hurtByA, m)
	if hurtByM <= hurtByA {
		t.Errorf("class M co-runner (%.2f) should hurt class C more than class A (%.2f)", hurtByM, hurtByA)
	}
}
