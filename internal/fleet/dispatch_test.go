package fleet

import (
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rng"
	"repro/internal/sched"
)

// classJobs returns one synthetic job per class, classed the same on
// every one of types device types — enough to spell any pattern.
func classJobs(types int) []*job {
	jobs := make([]*job, classify.NumClasses)
	for c := range jobs {
		app := &appInfo{apps: make([]sched.QueuedApp, types)}
		for t := range app.apps {
			app.apps[t].Class = classify.Class(c)
		}
		jobs[c] = &job{app: app}
	}
	return jobs
}

// TestPatternEffMatchesEfficiency checks the memoized efficiency table
// against the direct computation: on both test device configs and at
// every NC from 2 to 10, patternEff equals match.Efficiency of the
// sorted pattern for every class multiset of size 2..NC, whatever order
// the members come in.
func TestPatternEffMatchesEfficiency(t *testing.T) {
	r := rng.NewStream(0x7AB1E)
	byClass := classJobs(1)
	for _, pipe := range []*core.Pipeline{testPipeline(t), pipelineFor(t, tinyConfig())} {
		for nc := 2; nc <= 10; nc++ {
			f, err := New(Config{Devices: homo(pipe, 1), NC: nc, Policy: sched.ILP})
			if err != nil {
				t.Fatal(err)
			}
			for size := 2; size <= nc; size++ {
				for _, p := range match.Patterns(size) {
					members := make([]*job, len(p))
					for i, c := range p {
						members[i] = byClass[c]
					}
					r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
					got := f.patternEff(0, members[1:], members[0])
					if want := match.Efficiency(pipe.Matrix(), p); got != want {
						t.Fatalf("%s NC %d: patternEff(%v) = %v, want %v", pipe.Config().Name, nc, p, got, want)
					}
				}
			}
		}
	}
}

// TestSolveWindowMatchesSolve checks the memoized solve against
// match.Solve on random window compositions, on both test device
// configs at every NC from 2 to 9.
func TestSolveWindowMatchesSolve(t *testing.T) {
	r := rng.NewStream(0x50175)
	for _, pipe := range []*core.Pipeline{testPipeline(t), pipelineFor(t, tinyConfig())} {
		for nc := 2; nc <= 9; nc++ {
			f, err := New(Config{Devices: homo(pipe, 1), NC: nc, Policy: sched.ILP})
			if err != nil {
				t.Fatal(err)
			}
			d := f.newDispatcher()
			for trial := 0; trial < 3; trial++ {
				var counts [classify.NumClasses]int
				for n := nc + r.Intn(MaxWindow-nc+1); n > 0; n-- {
					counts[r.Intn(int(classify.NumClasses))]++
				}
				got, err := d.solveWindow(0, counts)
				if err != nil {
					t.Fatalf("%s NC %d counts %v: solveWindow: %v", pipe.Config().Name, nc, counts, err)
				}
				want, err := match.Solve(pipe.Matrix(), counts, nc)
				if err != nil {
					t.Fatalf("%s NC %d counts %v: Solve: %v", pipe.Config().Name, nc, counts, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s NC %d counts %v: solveWindow %v, Solve %v", pipe.Config().Name, nc, counts, got, want)
				}
			}
		}
	}
}
