package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func testConfig() config.CacheConfig {
	return config.CacheConfig{
		SizeBytes:     4 * 1024,
		LineBytes:     128,
		Assoc:         4,
		LatencyCycles: 1,
		MSHREntries:   4,
		MSHRMaxMerged: 2,
		WriteBack:     false,
		WriteAllocate: false,
	}
}

func writeBackConfig() config.CacheConfig {
	c := testConfig()
	c.WriteBack = true
	c.WriteAllocate = true
	return c
}

func lineAt(i int) uint64 { return uint64(i) * 128 }

func TestMissThenFillThenHit(t *testing.T) {
	c := MustNew(testConfig())
	if got := c.Access(lineAt(1), false, 7, 0); got != Miss {
		t.Fatalf("first access = %v, want miss", got)
	}
	waiters, _, evicted := c.Fill(lineAt(1), 0, false)
	if evicted {
		t.Fatal("fill into empty cache evicted")
	}
	if len(waiters) != 1 || waiters[0] != 7 {
		t.Fatalf("waiters = %v, want [7]", waiters)
	}
	if got := c.Access(lineAt(1), false, 8, 0); got != Hit {
		t.Fatalf("post-fill access = %v, want hit", got)
	}
}

func TestMSHRMergeAndLimit(t *testing.T) {
	c := MustNew(testConfig())
	if got := c.Access(lineAt(1), false, 1, 0); got != Miss {
		t.Fatalf("got %v", got)
	}
	if got := c.Access(lineAt(1), false, 2, 0); got != MissMerged {
		t.Fatalf("merge = %v, want miss-merged", got)
	}
	// Merge limit is 2 waiters.
	if got := c.Access(lineAt(1), false, 3, 0); got != Stall {
		t.Fatalf("over-merge = %v, want stall", got)
	}
	if c.CanMerge(lineAt(1)) {
		t.Fatal("CanMerge should be false at merge limit")
	}
	// MSHR entry limit is 4.
	for i := 2; i <= 4; i++ {
		if got := c.Access(lineAt(i), false, uint64(i), 0); got != Miss {
			t.Fatalf("line %d: %v", i, got)
		}
	}
	if got := c.Access(lineAt(5), false, 5, 0); got != Stall {
		t.Fatalf("MSHR exhaustion = %v, want stall", got)
	}
	if c.MSHRFree() != 0 {
		t.Fatalf("MSHRFree = %d, want 0", c.MSHRFree())
	}
	waiters := mustFill(t, c, lineAt(1))
	if len(waiters) != 2 {
		t.Fatalf("waiters = %v, want 2 entries", waiters)
	}
	if c.MSHRFree() != 1 {
		t.Fatalf("MSHRFree after fill = %d, want 1", c.MSHRFree())
	}
}

func mustFill(t *testing.T, c *Cache, ln uint64) []uint64 {
	t.Helper()
	waiters, _, _ := c.Fill(ln, 0, false)
	return waiters
}

func TestLRUEviction(t *testing.T) {
	cfg := testConfig()
	c := MustNew(cfg)
	// All lines with the same set index; with hashed indexing, collect
	// lines mapping to one set first.
	var sameSet []uint64
	want := c.setIndex(lineAt(0))
	for i := 0; len(sameSet) < cfg.Assoc+1; i++ {
		if c.setIndex(lineAt(i)) == want {
			sameSet = append(sameSet, lineAt(i))
		}
	}
	for _, ln := range sameSet[:cfg.Assoc] {
		c.Access(ln, false, 0, 0)
		c.Fill(ln, 0, false)
	}
	// Touch the first line so the second becomes LRU.
	if got := c.Access(sameSet[0], false, 0, 0); got != Hit {
		t.Fatalf("warm line = %v, want hit", got)
	}
	// Fill one more line into the set: must evict the LRU (sameSet[1]).
	c.Access(sameSet[cfg.Assoc], false, 0, 0)
	c.Fill(sameSet[cfg.Assoc], 0, false)
	if got := c.Access(sameSet[1], false, 0, 0); got == Hit {
		t.Fatal("LRU victim still resident")
	}
	if got := c.Access(sameSet[0], false, 0, 0); got != Hit {
		t.Fatal("MRU line was evicted")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := MustNew(testConfig())
	if got := c.Access(lineAt(1), true, 0, 3); got != Bypass {
		t.Fatalf("store miss = %v, want bypass", got)
	}
	if c.ResidentLines() != 0 {
		t.Fatal("store miss allocated a line")
	}
	c.Access(lineAt(2), false, 0, 3)
	c.Fill(lineAt(2), 3, false)
	if got := c.Access(lineAt(2), true, 0, 3); got != Hit {
		t.Fatalf("store hit = %v, want hit", got)
	}
	// Write-through: the line stays clean; a conflicting fill must not
	// report a dirty eviction.
	_, _, evicted := c.Fill(lineAt(2), 3, false)
	_ = evicted // re-fill of resident line never evicts
}

func TestWriteBackDirtyEviction(t *testing.T) {
	cfg := writeBackConfig()
	c := MustNew(cfg)
	var sameSet []uint64
	want := c.setIndex(lineAt(0))
	for i := 0; len(sameSet) < cfg.Assoc+1; i++ {
		if c.setIndex(lineAt(i)) == want {
			sameSet = append(sameSet, lineAt(i))
		}
	}
	// Dirty one line via fill(dirty).
	c.Fill(sameSet[0], 5, true)
	for _, ln := range sameSet[1:cfg.Assoc] {
		c.Fill(ln, 0, false)
	}
	// Next fill in the set evicts the dirty LRU line.
	_, ev, evicted := c.Fill(sameSet[cfg.Assoc], 0, false)
	if !evicted {
		t.Fatal("expected dirty eviction")
	}
	if ev.Line != sameSet[0] || ev.Owner != 5 {
		t.Fatalf("eviction = %+v, want line %#x owner 5", ev, sameSet[0])
	}
}

func TestInvalidateAllPreservesMSHRs(t *testing.T) {
	c := MustNew(testConfig())
	c.Access(lineAt(1), false, 1, 0)
	c.Access(lineAt(2), false, 2, 0)
	c.Fill(lineAt(2), 0, false)
	c.InvalidateAll()
	if c.ResidentLines() != 0 {
		t.Fatal("lines survived InvalidateAll")
	}
	if c.OutstandingMisses() != 1 {
		t.Fatalf("outstanding misses = %d, want 1", c.OutstandingMisses())
	}
	waiters := mustFill(t, c, lineAt(1))
	if len(waiters) != 1 || waiters[0] != 1 {
		t.Fatalf("waiters = %v, want [1]", waiters)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := MustNew(testConfig())
	c.Access(lineAt(1), false, 0, 0) // miss
	c.Access(lineAt(1), false, 1, 0) // merged
	c.Fill(lineAt(1), 0, false)
	c.Access(lineAt(1), false, 2, 0) // hit
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 1 || st.Misses != 1 || st.Merged != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() <= 0.33 || st.HitRate() >= 0.34 {
		t.Fatalf("hit rate = %v, want 1/3", st.HitRate())
	}
}

// TestResidencyInvariant drives random access/fill sequences and checks
// that resident lines never exceed capacity and MSHRs never exceed
// their limit.
func TestResidencyInvariant(t *testing.T) {
	cfg := testConfig()
	f := func(ops []uint16) bool {
		c := MustNew(cfg)
		var outstanding []uint64
		for _, op := range ops {
			ln := lineAt(int(op % 64))
			switch {
			case op%3 == 0 && len(outstanding) > 0:
				// Fill the oldest outstanding miss.
				c.Fill(outstanding[0], 0, false)
				outstanding = outstanding[1:]
			default:
				res := c.Access(ln, op%5 == 0, uint64(op), 0)
				if res == Miss {
					outstanding = append(outstanding, ln)
				}
			}
			if c.ResidentLines() > cfg.Sets()*cfg.Assoc {
				return false
			}
			if c.OutstandingMisses() > cfg.MSHREntries {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMSHRTableRandomOps cross-checks the open-addressing MSHR table
// against a map reference under random insert/remove/get sequences.
func TestMSHRTableRandomOps(t *testing.T) {
	f := func(ops []uint16) bool {
		tab := newMSHRTable(16)
		ref := map[uint64][]uint64{}
		for _, op := range ops {
			key := uint64(op % 37)
			switch op % 3 {
			case 0:
				if _, ok := ref[key]; !ok && len(ref) < 16 {
					tab.insert(key, uint64(op))
					ref[key] = []uint64{uint64(op)}
				}
			case 1:
				got := tab.remove(key)
				want := ref[key]
				delete(ref, key)
				if (got == nil) != (want == nil) {
					return false
				}
				if len(got) != len(want) {
					return false
				}
			case 2:
				e := tab.get(key)
				_, ok := ref[key]
				if (e != nil) != ok {
					return false
				}
			}
			if tab.len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochCoversProbeAnswers pins the Epoch contract the SM's stalled
// load replay relies on: across random loads, stores, fills, dirtying
// and invalidation, whenever Epoch is unchanged by an operation every
// Probe, ProbeMiss, CanMerge and MSHRFree answer is unchanged too.
func TestEpochCoversProbeAnswers(t *testing.T) {
	type answers struct {
		probe, probeMiss, canMerge []bool
		free                       int
	}
	snapshot := func(c *Cache) answers {
		var a answers
		for i := 0; i < 48; i++ {
			a.probe = append(a.probe, c.Probe(lineAt(i)))
			a.probeMiss = append(a.probeMiss, c.ProbeMiss(lineAt(i)))
			a.canMerge = append(a.canMerge, c.CanMerge(lineAt(i)))
		}
		a.free = c.MSHRFree()
		return a
	}
	same := func(a, b answers) bool {
		for i := range a.probe {
			if a.probe[i] != b.probe[i] || a.probeMiss[i] != b.probeMiss[i] || a.canMerge[i] != b.canMerge[i] {
				return false
			}
		}
		return a.free == b.free
	}
	f := func(ops []uint16) bool {
		for _, cfg := range []config.CacheConfig{testConfig(), writeBackConfig()} {
			c := MustNew(cfg)
			for _, op := range ops {
				ln := lineAt(int(op>>3) % 48)
				before, epoch := snapshot(c), c.Epoch()
				switch op % 8 {
				case 0, 1, 2:
					c.Access(ln, false, uint64(op), 0)
				case 3:
					c.Access(ln, true, uint64(op), 0)
				case 4, 5:
					c.Fill(ln, 0, op%2 == 0)
				case 6:
					c.MarkDirty(ln, 1)
				case 7:
					if op%64 == 7 {
						c.InvalidateAll()
					}
				}
				if c.Epoch() == epoch && !same(before, snapshot(c)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
