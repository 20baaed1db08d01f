package fleet

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// refBefore is the dispatch-priority order the queue must keep: latency
// class before batch when SLO-aware, then arrival cycle, then arrival
// index.
func refBefore(slo bool, a, b *JobRecord) bool {
	if slo && a.SLO != b.SLO {
		return a.SLO == Latency
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// TestJobQueueMatchesReference drives the two-run queue and a naive
// sorted-slice reference through the same randomized insert/remove
// script and demands identical contents at every step, both through at
// and through every window up to and beyond MaxWindow — the queue is
// the one data structure whose bugs would not crash but silently
// reorder dispatch.
func TestJobQueueMatchesReference(t *testing.T) {
	info := &appInfo{soloEst: 3, coEst: 5}
	for _, slo := range []bool{false, true} {
		q := jobQueue{slo: slo}
		var ref []*JobRecord
		refInsert := func(j *JobRecord) {
			pos := len(ref)
			for i, r := range ref {
				if refBefore(slo, j, r) {
					pos = i
					break
				}
			}
			ref = append(ref, nil)
			copy(ref[pos+1:], ref[pos:])
			ref[pos] = j
		}
		check := func(step int) {
			t.Helper()
			if q.Len() != len(ref) {
				t.Fatalf("step %d: len %d, want %d", step, q.Len(), len(ref))
			}
			latency := 0
			for i, r := range ref {
				if q.at(i) != r {
					t.Fatalf("step %d: slot %d holds j%d, want j%d", step, i, q.at(i).ID, r.ID)
				}
				if r.SLO == Latency {
					latency++
				}
			}
			if q.latency != latency || q.work != uint64(3*len(ref)) || q.cowork != uint64(5*len(ref)) {
				t.Fatalf("step %d: counters latency=%d work=%d cowork=%d for %d jobs (%d latency)",
					step, q.latency, q.work, q.cowork, len(ref), latency)
			}
			for _, n := range []int{0, 1, 2, MinWindow, MaxWindow / 2, MaxWindow, MaxWindow + 7, 2 * MaxWindow, len(ref), len(ref) + 1} {
				want := ref[:min(n, len(ref))]
				got := q.window(n)
				if len(got) != len(want) {
					t.Fatalf("step %d: window(%d) has %d jobs, want %d", step, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("step %d: window(%d)[%d] is j%d, want j%d", step, n, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
		stream := rng.NewStream(0xbeef)
		id := 0
		arrival := uint64(0)
		// gone holds removed jobs; re-entering one (an evicted job going
		// back) brings an older id that may tie on arrival with waiting
		// jobs, which only the id tie-break orders.
		var gone []*JobRecord
		for step := 0; step < 2000; step++ {
			switch op := stream.Intn(10); {
			case op < 5 || len(ref) == 0:
				// In-order arrival (the common case: append position).
				arrival += uint64(stream.Intn(8))
				j := &JobRecord{ID: id, app: info, Arrival: arrival, SLO: SLOClass(stream.Intn(2))}
				id++
				q.insert(j)
				refInsert(j)
			case op < 7:
				// Re-entry of an evicted job: mid-queue insert.
				var j *JobRecord
				if len(gone) > 0 && stream.Intn(4) > 0 {
					k := stream.Intn(len(gone))
					j = gone[k]
					gone = append(gone[:k], gone[k+1:]...)
				} else {
					j = &JobRecord{ID: id, app: info, Arrival: arrival / 2, SLO: SLOClass(stream.Intn(2))}
					id++
				}
				q.insert(j)
				refInsert(j)
			case op < 9:
				// Window-prefix removal, like group formation.
				w := stream.Intn(MaxWindow) + 1
				if w > len(ref) {
					w = len(ref)
				}
				var taken []*JobRecord
				for i := 0; i < w; i++ {
					if stream.Intn(2) == 0 || len(taken) == 0 {
						taken = append(taken, ref[i])
					}
				}
				q.removeJobs(taken)
				gone = append(gone, taken...)
				out := ref[:0]
				for _, r := range ref {
					if !containsJob(taken, r) {
						out = append(out, r)
					}
				}
				ref = out
			default:
				// Prefix pop, like FCFS dispatch.
				n := stream.Intn(3) + 1
				if n > len(ref) {
					n = len(ref)
				}
				q.advance(n)
				gone = append(gone, ref[:n]...)
				ref = ref[n:]
			}
			check(step)
		}
	}
}

// BenchmarkJobQueueInsert times one latency arrival inserted ahead of a
// standing batch backlog and then dispatched (removed from the head),
// with SLO dispatch on. The two backlog depths show the cost does not
// depend on the backlog: a latency arrival appends to its own run and
// never shifts the batch run.
func BenchmarkJobQueueInsert(b *testing.B) {
	info := &appInfo{}
	for _, backlog := range []int{1 << 10, 1 << 18} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			q := jobQueue{slo: true}
			for i := 0; i < backlog; i++ {
				q.insert(&JobRecord{ID: i, app: info, Arrival: uint64(i), SLO: Batch})
			}
			j := &JobRecord{ID: backlog, app: info, Arrival: uint64(backlog), SLO: Latency}
			members := []*JobRecord{j}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.insert(j)
				q.removeJobs(members)
			}
		})
	}
}
