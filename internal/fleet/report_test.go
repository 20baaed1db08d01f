package fleet

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
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

// referenceStats aggregates the job records the slow way: the counts
// by per-record scans, and each distribution by stats.Summarize over
// its samples in float kilocycles, in arrival order.
func referenceStats(r Result) RunStats {
	var s RunStats
	var wait, turn, classWait, classTurn [2][]float64
	var slack []float64
	for i := range r.Jobs {
		j := &r.Jobs[i]
		if j.SLO == Latency {
			s.Latency++
		}
		if j.Missed() {
			s.Misses++
		}
		if j.Outcome != Done {
			continue
		}
		s.Completed++
		w, t := float64(j.Wait())/1000, float64(j.Turnaround())/1000
		wait[0], turn[0] = append(wait[0], w), append(turn[0], t)
		classWait[j.SLO] = append(classWait[j.SLO], w)
		classTurn[j.SLO] = append(classTurn[j.SLO], t)
		if j.SLO == Latency {
			s.CompletedLatency++
			slack = append(slack, float64(j.Slack())/1000)
		}
	}
	if s.CompletedLatency > 0 {
		s.MissRate = float64(s.Misses) / float64(s.CompletedLatency)
	}
	s.Wait, s.Turnaround = stats.Summarize(wait[0]), stats.Summarize(turn[0])
	for c := range classWait {
		s.ClassWait[c] = stats.Summarize(classWait[c])
		s.ClassTurnaround[c] = stats.Summarize(classTurn[c])
	}
	s.Slack = stats.Summarize(slack)
	return s
}

// referenceLines renders the Summary lines that aggregate job records
// from the reference aggregation.
func referenceLines(r Result, s RunStats) []string {
	var lines []string
	if r.Closed {
		lines = append(lines, fmt.Sprintf("control     submitted=%d completed=%d rejected=%d degraded=%d abandoned=%d retried=%d",
			r.Submitted, s.Completed, r.Rejected, r.Degraded, r.Abandoned, r.Retried))
	}
	lines = append(lines,
		fmt.Sprintf("wait        (kcycles) %v", s.Wait),
		fmt.Sprintf("turnaround  (kcycles) %v", s.Turnaround))
	if s.Latency > 0 || len(r.Evictions) > 0 {
		lines = append(lines,
			fmt.Sprintf("latency wait       (kcycles) %v", s.ClassWait[Latency]),
			fmt.Sprintf("latency turnaround (kcycles) %v", s.ClassTurnaround[Latency]),
			fmt.Sprintf("latency slack      (kcycles) %v", s.Slack),
			fmt.Sprintf("batch wait         (kcycles) %v", s.ClassWait[Batch]),
			fmt.Sprintf("batch turnaround   (kcycles) %v", s.ClassTurnaround[Batch]),
			fmt.Sprintf("deadline-miss      %d/%d (%.1f%%)", s.Misses, s.CompletedLatency, 100*s.MissRate))
	}
	return lines
}

// checkSummary checks r.Stats against referenceStats, and every Summary
// line that aggregates job records against the line rendered from the
// reference, so the per-class block must appear exactly when the
// reference says it should.
func checkSummary(t *testing.T, name string, seed uint64, r Result) RunStats {
	t.Helper()
	want := referenceStats(r)
	if got := r.Stats(); got != want {
		t.Fatalf("%s, seed %d: Stats\n%+v\nreference\n%+v", name, seed, got, want)
	}
	prefixes := []string{"control ", "wait ", "turnaround ", "latency ", "batch ", "deadline-miss "}
	var got []string
	for _, line := range strings.Split(r.Summary(), "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				got = append(got, line)
				break
			}
		}
	}
	if g, w := strings.Join(got, "\n"), strings.Join(referenceLines(r, want), "\n"); g != w {
		t.Fatalf("%s, seed %d: summary lines\n%s\nwant\n%s", name, seed, g, w)
	}
	return want
}

// TestSummaryMatchesPerMetricMethods checks the one-pass Stats and
// Summary against the reference aggregation and the per-metric methods
// over random Results: every RunStats field and every Summary line that
// aggregates job records must equal the reference, whose counts must in
// turn equal CompletedJobs and DeadlineMisses, and whose turnaround
// summary must equal stats.Summarize over Turnarounds.
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
	for _, tc := range cases {
		for seed := uint64(1); seed <= 25; seed++ {
			r := randomResult(rng.NewStream(seed), tc.jobs, tc.latFrac, tc.latencyFails, tc.evictions)
			s := checkSummary(t, tc.name, seed, r)
			if s.Completed != r.CompletedJobs() || s.Misses != r.DeadlineMisses() {
				t.Fatalf("%s, seed %d: completed %d misses %d, methods say %d and %d",
					tc.name, seed, s.Completed, s.Misses, r.CompletedJobs(), r.DeadlineMisses())
			}
			if want := stats.Summarize(r.Turnarounds()); s.Turnaround != want {
				t.Fatalf("%s, seed %d: turnaround %v, Turnarounds say %v", tc.name, seed, s.Turnaround, want)
			}
		}
	}
}

// TestSummaryMatchesFloatSummaries checks the integer summary path
// against the float reference aggregation on Results large enough for
// the radix sort, with both classes, ties and negative slacks: once with
// times wide enough for three radix passes, and once with waits past
// 2^32 cycles, which Stats must redo at 64 bits instead of truncating.
func TestSummaryMatchesFloatSummaries(t *testing.T) {
	for _, span := range []struct {
		name string
		wait int
	}{{"wide", 1 << 28}, {"past 32 bits", 1 << 34}} {
		for seed := uint64(1); seed <= 25; seed++ {
			s := rng.NewStream(seed)
			r := randomResult(s, 3000, 0.3, false, 1)
			longest := uint64(0)
			for i := range r.Jobs {
				if j := &r.Jobs[i]; j.Outcome == Done {
					j.Arrival = uint64(s.Intn(1 << 30))
					j.Dispatch = j.Arrival + uint64(s.Intn(span.wait))
					j.Complete = j.Dispatch + uint64(s.Intn(4))*100_000
					j.Deadline = uint64(s.Intn(3)) * (1 << 27)
					longest = max(longest, j.Turnaround())
				}
			}
			if fits := longest <= math.MaxUint32; fits != (span.wait < 1<<32) {
				t.Fatalf("%s, seed %d: longest turnaround %d cycles", span.name, seed, longest)
			}
			checkSummary(t, span.name, seed, r)
		}
	}
}

// BenchmarkResultSummary times Result.Summary, the fleet's result-build
// rung, over 500k job records built once outside the timer. The records
// are shaped like the modeled-open benchmark workload's: a tenth of the
// jobs are latency-class, and waits spread over 2^27 cycles, so the
// radix sorts take three passes as they do on that workload's backlog.
func BenchmarkResultSummary(b *testing.B) {
	const jobs = 500_000
	s := rng.NewStream(1)
	r := Result{
		Policy: sched.ILPSMRA, Engine: Modeled, Roster: "1xSmall-8SM", Devices: 1, NC: 2,
		Makespan: 1 << 30, DeviceBusy: []uint64{1 << 29}, DeviceConfig: []string{"Small-8SM"},
		Jobs: make([]JobRecord, jobs),
	}
	for i := range r.Jobs {
		arrival := uint64(i) * 2_000
		dispatch := arrival + uint64(s.Intn(1<<27))
		rec := JobRecord{ID: i, Name: "miniA", Arrival: arrival, Dispatch: dispatch,
			Complete: dispatch + 10_000 + uint64(s.Intn(200_000)), Attempts: 1}
		if s.Intn(10) == 0 {
			rec.SLO, rec.Deadline = Latency, 400_000
		}
		r.Jobs[i] = rec
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Summary() == "" {
			b.Fatal("empty summary")
		}
	}
}
