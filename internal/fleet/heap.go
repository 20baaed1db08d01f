package fleet

// The event core's indexed structures. The old loop re-scanned every
// in-flight group and every device per event — O(events × devices) —
// which a 4-device fleet never notices and a 256-device one cannot
// afford. One keyed min-heap, keyHeap, replaces the scans and serves
// all four of the loop's indexed sources, each pushing its own key:
//
//   - resolved flights, keyed (completion, device): the provably-next
//     completion is the root;
//   - unresolved flights, keyed (earliest bound, dispatch sequence): the
//     flight the loop may have to block on is the root, and the sequence
//     tie-break reproduces the old scan's first-dispatched-wins order;
//   - idle devices, keyed (placement position, device), so the dispatch
//     pass pops the fastest idle device instead of scanning for one;
//   - control events that can land at any cycle — submissions,
//     retries, scale ticks and provisions — keyed (cycle, push
//     sequence) (control.go).
//
// Control events pushed in key order skip the heap: abandon timers
// (armed a fixed timeout after their submission) and the chaos
// schedule (a sorted trace, or generated outages queued one at a time)
// each wait in a monoQueue, a FIFO whose head is its minimum, and the
// control block pops whichever of its three heads has the least key.
//
// Keys are unique among a heap's live entries (a stale flight entry may
// tie a live one, but peek discards it whichever surfaces first), so
// the pop order is the key order and no result can depend on how the
// heap lays out its entries.
//
// Flights leave their heaps lazily: eviction and resolution mark the
// flight's state and peek/pop discard stale roots, so removal never
// needs an index into the heap.
//
// Heap traffic is per flight, never per job: a modeled dispatch commits
// the whole group as one resolved entry (commitModeled), so an NC-member
// completion costs one push and one pop, not NC of each — the batching
// half of the steady-state zero-allocation dispatch contract.

// flightState tracks which heap (if any) a flight is live in.
type flightState int

const (
	// flightPending: simulation outstanding, live in the unresolved heap.
	flightPending flightState = iota
	// flightResolved: completion known, live in the resolved heap.
	flightResolved
	// flightEvicted: preempted; stale in whichever heap it was in.
	flightEvicted
	// flightRetired: completed and accounted; stale in the resolved heap.
	flightRetired
)

// keyHeap is a binary min-heap of values ordered by (at, tie). The key
// compare is written out where it is used rather than passed in as a
// function, so it compiles to two integer compares.
type keyHeap[T any] struct{ v []keyed[T] }

type keyed[T any] struct {
	at  uint64
	tie int
	val T
}

//simlint:hotpath
func (h *keyHeap[T]) push(at uint64, tie int, val T) {
	h.v = append(h.v, keyed[T]{at, tie, val})
	h.up(len(h.v) - 1)
}

// removeAt deletes entry i. The last entry fills the hole: the hole
// moves down past every child that sorts before that entry, which is
// written once where the hole stops, and sifts up if the hole did not
// move (it can break the order either way).
//
//simlint:hotpath
func (h *keyHeap[T]) removeAt(i int) {
	n := len(h.v) - 1
	last := h.v[n]
	h.v[n] = keyed[T]{}
	h.v = h.v[:n]
	if i == n {
		return
	}
	j := i
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && (h.v[r].at < h.v[c].at || h.v[r].at == h.v[c].at && h.v[r].tie < h.v[c].tie) {
			c = r
		}
		if h.v[c].at > last.at || h.v[c].at == last.at && h.v[c].tie >= last.tie {
			break
		}
		h.v[j] = h.v[c]
		j = c
	}
	h.v[j] = last
	if j == i {
		h.up(i)
	}
}

func (h *keyHeap[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.v[p].at < h.v[i].at || h.v[p].at == h.v[i].at && h.v[p].tie <= h.v[i].tie {
			return
		}
		h.v[i], h.v[p] = h.v[p], h.v[i]
		i = p
	}
}

// monoQueue is a FIFO of keyed entries pushed in non-decreasing key
// order, so its head is its minimum and push and pop are O(1). Popped
// slots are reclaimed by sliding the live entries to the front when
// the backing array is full and at least half popped, so the array
// stays proportional to the most entries ever pending at once.
type monoQueue[T any] struct {
	v    []keyed[T]
	head int
}

//simlint:hotpath
func (q *monoQueue[T]) push(at uint64, tie int, val T) {
	if len(q.v) == cap(q.v) && 2*q.head >= len(q.v) {
		n := copy(q.v, q.v[q.head:])
		clear(q.v[n:])
		q.v, q.head = q.v[:n], 0
	}
	q.v = append(q.v, keyed[T]{at, tie, val})
}

// peek returns the head entry, or nil when the queue is empty.
func (q *monoQueue[T]) peek() *keyed[T] {
	if q.head == len(q.v) {
		return nil
	}
	return &q.v[q.head]
}

// pop drops the head entry.
func (q *monoQueue[T]) pop() {
	q.v[q.head] = keyed[T]{}
	q.head++
}

// len is the number of pending entries.
func (q *monoQueue[T]) len() int { return len(q.v) - q.head }

// flightHeap is a keyHeap of in-flight groups with lazy deletion driven
// by the live state.
type flightHeap struct {
	keyHeap[*inflight]
	live flightState
}

// peek returns the minimum live flight, discarding stale roots (evicted
// or state-transitioned flights), or nil when empty.
func (h *flightHeap) peek() *inflight {
	for len(h.v) > 0 {
		if fl := h.v[0].val; fl.state == h.live {
			return fl
		}
		h.removeAt(0)
	}
	return nil
}

// pop removes and returns the minimum live flight (nil when empty).
func (h *flightHeap) pop() *inflight {
	fl := h.peek()
	if fl != nil {
		h.removeAt(0)
	}
	return fl
}

// deviceHeap is a keyHeap of idle device indices keyed by placement
// position (orderPos), so pop yields exactly the device the old linear
// scan over f.order would have found first.
type deviceHeap struct {
	keyHeap[int]
	pos []int // device index -> placement position (f.orderPos)
}

func (h *deviceHeap) push(d int) { h.keyHeap.push(uint64(h.pos[d]), d, d) }

// pop removes and returns the idle device first in placement order, or
// -1 when no device is idle.
func (h *deviceHeap) pop() int {
	if len(h.v) == 0 {
		return -1
	}
	d := h.v[0].val
	h.removeAt(0)
	return d
}

// remove deletes device d from the heap, wherever it sits — the
// autoscaler decommissions idle devices and chaos takes them down.
func (h *deviceHeap) remove(d int) {
	for i := range h.v {
		if h.v[i].val == d {
			h.removeAt(i)
			return
		}
	}
}
