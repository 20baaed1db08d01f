package fleet

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rng"
	"repro/internal/sched"
)

// classJobs returns one synthetic job per class, classed the same on
// every one of types device types — enough to spell any pattern.
func classJobs(types int) []*JobRecord {
	jobs := make([]*JobRecord, classify.NumClasses)
	for c := range jobs {
		app := &appInfo{apps: make([]sched.QueuedApp, types)}
		for t := range app.apps {
			app.apps[t].Class = classify.Class(c)
		}
		jobs[c] = &JobRecord{app: app}
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
					members := make([]*JobRecord, len(p))
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

// TestPickTableMatchesSolve is the differential check of the
// dispatcher's pick tables against match.Solve, which the aging path
// calls: on both test device configs, the table's pick equals
// match.HeadPattern of Solve's cover for every head class the window
// holds. At NC 2 and 3 it covers every window composition of size NC
// through MaxWindow (NC 3 samples under -short); at NC 4 to 10 it
// samples.
func TestPickTableMatchesSolve(t *testing.T) {
	// Random compositions checked per NC when not exhaustive.
	samples := []int{3: 200, 4: 400, 5: 400, 6: 400, 7: 400, 8: 400, 9: 400, 10: 400}
	r := rng.NewStream(0x50175)
	var lat match.Lattice
	for _, pipe := range []*core.Pipeline{testPipeline(t), pipelineFor(t, tinyConfig())} {
		for nc := 2; nc <= 10; nc++ {
			f, err := New(Config{Devices: homo(pipe, 1), NC: nc, Policy: sched.ILP})
			if err != nil {
				t.Fatal(err)
			}
			d := f.newDispatcher()
			checked := 0
			check := func(counts [classify.NumClasses]int) {
				res, err := match.Solve(f.ncPatterns, f.ncEff[0], counts, nc, &lat)
				if err != nil {
					t.Fatalf("%s NC %d counts %v: Solve: %v", pipe.Config().Name, nc, counts, err)
				}
				for h := classify.Class(0); h < classify.NumClasses; h++ {
					if counts[h] == 0 {
						continue
					}
					if got, want := d.picks[0].Pick(counts, h), match.HeadPattern(res, h); got != want {
						t.Fatalf("%s NC %d counts %v head %v: table picks %d, Solve %d (%v)",
							pipe.Config().Name, nc, counts, h, got, want, res)
					}
				}
				checked++
			}
			if nc == 2 || nc == 3 && !testing.Short() {
				for n := nc; n <= MaxWindow; n++ {
					forEachComposition(n, check)
				}
			} else {
				for trial := 0; trial < samples[nc]; trial++ {
					var counts [classify.NumClasses]int
					for n := nc + r.Intn(MaxWindow-nc+1); n > 0; n-- {
						counts[r.Intn(int(classify.NumClasses))]++
					}
					check(counts)
				}
			}
			t.Logf("%s NC %d: %d compositions", pipe.Config().Name, nc, checked)
		}
	}
}

// forEachComposition calls fn with every class-count vector of size n.
func forEachComposition(n int, fn func([classify.NumClasses]int)) {
	for a := 0; a <= n; a++ {
		for b := 0; a+b <= n; b++ {
			for c := 0; a+b+c <= n; c++ {
				fn([classify.NumClasses]int{a, b, c, n - a - b - c})
			}
		}
	}
}
