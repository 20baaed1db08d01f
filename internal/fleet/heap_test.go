package fleet

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestKeyHeapMatchesSortedReference drives keyHeap with random push,
// removeAt and pop sequences and checks every pop against a sorted
// reference. Keys draw at from a tiny range, so most compares fall
// through to tie; ties are unique, as in every heap the loop keeps.
func TestKeyHeapMatchesSortedReference(t *testing.T) {
	type entry struct {
		at  uint64
		tie int
	}
	less := func(a, b entry) bool { return a.at < b.at || a.at == b.at && a.tie < b.tie }
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.NewStream(seed)
		var h keyHeap[entry]
		var ref []entry
		next := 0
		for op := 0; op < 2000; op++ {
			switch k := r.Intn(10); {
			case k < 5 || len(ref) == 0:
				// Ties are pushed in shuffled order, so neither key part
				// arrives sorted.
				e := entry{at: uint64(r.Intn(4)), tie: (next * 7919) % 100_003}
				next++
				h.push(e.at, e.tie, e)
				ref = append(ref, e)
			case k < 7:
				i := r.Intn(len(h.v))
				gone := h.v[i].val
				h.removeAt(i)
				for j := range ref {
					if ref[j] == gone {
						ref = append(ref[:j], ref[j+1:]...)
						break
					}
				}
			default:
				sort.Slice(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
				got := h.v[0]
				h.removeAt(0)
				if got.val != ref[0] || got.at != ref[0].at || got.tie != ref[0].tie {
					t.Fatalf("seed %d op %d: popped %+v, want %+v", seed, op, got, ref[0])
				}
				ref = ref[1:]
			}
			if len(h.v) != len(ref) {
				t.Fatalf("seed %d op %d: heap holds %d entries, reference %d", seed, op, len(h.v), len(ref))
			}
			for i := 1; i < len(h.v); i++ {
				p := (i - 1) / 2
				if less(h.v[i].val, h.v[p].val) {
					t.Fatalf("seed %d op %d: entry %d %+v sorts before its parent %+v", seed, op, i, h.v[i].val, h.v[p].val)
				}
			}
		}
	}
}

// TestDeviceHeapRemove removes arbitrary members (and a non-member) from
// the idle-device heap; the survivors must pop in placement order.
func TestDeviceHeapRemove(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := rng.NewStream(seed)
		n := 1 + r.Intn(24)
		pos := make([]int, n)
		for d := range pos {
			pos[d] = d
		}
		r.Shuffle(n, func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
		h := deviceHeap{pos: pos}
		for d := 0; d < n; d++ {
			h.push(d)
		}
		kept := make([]bool, n)
		for d := range kept {
			kept[d] = r.Intn(2) == 0
			if !kept[d] {
				h.remove(d)
			}
		}
		h.remove(n) // not a member: a no-op
		var want []int
		for d := 0; d < n; d++ {
			if kept[d] {
				want = append(want, d)
			}
		}
		sort.Slice(want, func(i, j int) bool { return pos[want[i]] < pos[want[j]] })
		for i, w := range want {
			if got := h.pop(); got != w {
				t.Fatalf("seed %d: pop %d = device %d, want %d", seed, i, got, w)
			}
		}
		if got := h.pop(); got != -1 {
			t.Fatalf("seed %d: empty heap popped %d, want -1", seed, got)
		}
	}
}

// TestKeyHeapSteadyStateAllocs pins the heap at zero allocations once
// its backing array is warm: push and pop only move entries.
func TestKeyHeapSteadyStateAllocs(t *testing.T) {
	var h flightHeap
	h.live = flightResolved
	fl := &inflight{state: flightResolved}
	for i := 0; i < 64; i++ {
		h.push(uint64(i), i, fl)
	}
	i := 64
	if allocs := testing.AllocsPerRun(1000, func() {
		h.push(uint64(i), i, fl)
		i++
		h.pop()
	}); allocs != 0 {
		t.Fatalf("warm push + pop allocates %.1f times, want 0", allocs)
	}
}
