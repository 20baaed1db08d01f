package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
)

// randomResult draws a Result whose job records exercise everything
// Summary aggregates: both SLO classes, all three outcomes, and times
// on a coarse grid so wait, turnaround and slack samples tie often.
// latencyFails makes every latency job end Rejected or Abandoned, which
// leaves the completed latency class empty.
func randomResult(s *rng.Stream, jobs int, latFrac float64, latencyFails bool, evictions int) Result {
	r := Result{
		Policy: sched.ILP, Engine: Modeled, Roster: "1xSmall-8SM", Devices: 1, NC: 2,
		Makespan: 50_000, DeviceBusy: []uint64{40_000}, DeviceConfig: []string{"Small-8SM"},
		Closed: s.Intn(2) == 0, Submitted: jobs,
	}
	for i := 0; i < jobs; i++ {
		rec := JobRecord{ID: i, Name: "miniA", Arrival: uint64(s.Intn(8)) * 500, Attempts: 1}
		if s.Float64() < latFrac {
			rec.SLO = Latency
			rec.Deadline = uint64(s.Intn(6)) * 1000
		}
		outcome := s.Intn(6)
		if rec.SLO == Latency && latencyFails {
			outcome %= 2
		}
		switch outcome {
		case 0:
			rec.Outcome, rec.Device = Rejected, -1
		case 1:
			rec.Outcome, rec.Device = Abandoned, -1
		default:
			rec.Dispatch = rec.Arrival + uint64(s.Intn(4))*1000
			rec.Complete = rec.Dispatch + uint64(1+s.Intn(4))*1000
		}
		r.Jobs = append(r.Jobs, rec)
	}
	for e := 0; e < evictions; e++ {
		r.Evictions = append(r.Evictions, EvictionRecord{Cycle: uint64(1000 * e), Jobs: []int{0}, Progress: []float64{0.5}, Wasted: 700})
	}
	return r
}

// perMetricLines renders the Summary lines that aggregate job records
// from the public per-metric methods, each of which sorts its own
// samples per call: the reference the one-pass Summary must match.
func perMetricLines(r Result) []string {
	var lines []string
	if r.Closed {
		lines = append(lines, fmt.Sprintf("control     submitted=%d completed=%d rejected=%d degraded=%d abandoned=%d retried=%d",
			r.Submitted, r.CompletedJobs(), r.Rejected, r.Degraded, r.Abandoned, r.Retried))
	}
	lines = append(lines,
		fmt.Sprintf("wait        (kcycles) %v", r.WaitSummary()),
		fmt.Sprintf("turnaround  (kcycles) %v", r.TurnaroundSummary()))
	if r.LatencyJobs() > 0 || len(r.Evictions) > 0 {
		lines = append(lines,
			fmt.Sprintf("latency wait       (kcycles) %v", r.WaitSummaryFor(Latency)),
			fmt.Sprintf("latency turnaround (kcycles) %v", r.TurnaroundSummaryFor(Latency)),
			fmt.Sprintf("latency slack      (kcycles) %v", r.SlackSummary()),
			fmt.Sprintf("batch wait         (kcycles) %v", r.WaitSummaryFor(Batch)),
			fmt.Sprintf("batch turnaround   (kcycles) %v", r.TurnaroundSummaryFor(Batch)),
			fmt.Sprintf("deadline-miss      %d/%d (%.1f%%)", r.DeadlineMisses(), r.CompletedLatencyJobs(), 100*r.MissRate()))
	}
	return lines
}

// TestSummaryMatchesPerMetricMethods checks the one-pass Summary against
// the per-metric methods over random Results: every line that
// aggregates job records must equal the line rendered from the methods,
// and the per-class block must appear exactly when they say it should.
func TestSummaryMatchesPerMetricMethods(t *testing.T) {
	cases := []struct {
		name         string
		jobs         int
		latFrac      float64
		latencyFails bool
		evictions    int
	}{
		{"no jobs", 0, 0, false, 0},
		{"no jobs, evictions", 0, 0, false, 2},
		{"batch only", 60, 0, false, 0},
		{"batch only, evictions", 60, 0, false, 3},
		{"all latency", 60, 1, false, 0},
		{"mixed", 80, 0.3, false, 1},
		{"few latency", 120, 0.02, false, 0},
		{"latency never completes", 80, 0.4, true, 0},
		{"one job", 1, 0.5, false, 0},
	}
	prefixes := []string{"control ", "wait ", "turnaround ", "latency ", "batch ", "deadline-miss "}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 25; seed++ {
			r := randomResult(rng.NewStream(seed), tc.jobs, tc.latFrac, tc.latencyFails, tc.evictions)
			var got []string
			for _, line := range strings.Split(r.Summary(), "\n") {
				for _, p := range prefixes {
					if strings.HasPrefix(line, p) {
						got = append(got, line)
						break
					}
				}
			}
			want := perMetricLines(r)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s, seed %d: summary lines\n%s\nwant\n%s", tc.name, seed,
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}
