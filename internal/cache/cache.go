// Package cache implements the set-associative caches of the simulator:
// the per-SM L1 data caches and the banked, shared L2.
//
// The cache is generic over its clients: miss tracking uses opaque waiter
// tokens, so the L1 can record which warp slots wait on a line while an
// L2 bank records which upstream requests merged onto one DRAM fetch.
// Replacement is LRU; miss-status holding registers (MSHRs) merge
// concurrent misses to the same line and bound the number of outstanding
// misses, producing the structural stalls that real GPUs exhibit under
// memory pressure.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
)

// AccessResult classifies the outcome of a cache access.
type AccessResult int

const (
	// Hit: the line is resident; no downstream traffic.
	Hit AccessResult = iota
	// Miss: a new MSHR entry was allocated; the caller must send one
	// request downstream.
	Miss
	// MissMerged: the line already has an outstanding miss; the waiter
	// was queued onto it and no downstream request is needed.
	MissMerged
	// Stall: no MSHR entry (or merge slot) is available; the caller must
	// retry later. No state was changed.
	Stall
	// Bypass: the access does not allocate (write-through, no-allocate
	// store miss); the caller forwards it downstream without tracking.
	Bypass
)

// String names the result for traces and test failures.
func (r AccessResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissMerged:
		return "miss-merged"
	case Stall:
		return "stall"
	case Bypass:
		return "bypass"
	default:
		return fmt.Sprintf("AccessResult(%d)", int(r))
	}
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	owner   int16 // application index for write-back attribution
	lastUse uint64
}

type mshrEntry struct {
	line    uint64
	waiters []uint64
}

// Stats counts cache events. Accesses = Hits + Misses + Merged; stalls
// are retried and not double-counted as accesses.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Merged   uint64
	Stalls   uint64
	Fills    uint64
	Evicts   uint64
}

// HitRate returns Hits/Accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one set-associative cache with LRU replacement and MSHRs.
// It is not safe for concurrent use; the simulator is single-threaded
// per device.
type Cache struct {
	cfg       config.CacheConfig
	sets      [][]line
	setShift  uint
	setMask   uint64
	mshrs     *mshrTable
	mshrLimit int
	useClock  uint64
	// epoch counts the changes that can alter a Probe, ProbeMiss or
	// CanMerge answer: misses, merges, fills and invalidation. Hits and
	// dirtying leave it alone.
	epoch uint64
	stats Stats
}

// New builds a cache from a validated configuration.
func New(cfg config.CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Assoc)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc:cfg.Assoc], backing[cfg.Assoc:]
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		setShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(nsets - 1),
		mshrs:     newMSHRTable(cfg.MSHREntries),
		mshrLimit: cfg.MSHREntries,
	}, nil
}

// MustNew is New for configurations known to be valid; it panics on error.
func MustNew(cfg config.CacheConfig) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// setIndex hashes the line address into a set. Hashing (rather than
// slicing address bits) prevents pathological aliasing: lines are
// interleaved across memory partitions, so an L2 bank only ever sees
// every Nth line and bit-sliced indexing would strand a fraction of its
// sets; power-of-two strides would do the same to the L1. Real GPU
// caches use XOR-folded indices for the same reason.
func (c *Cache) setIndex(lineAddr uint64) uint64 {
	x := lineAddr >> c.setShift
	x ^= x >> 13
	x *= 0x9e3779b97f4a7c15
	return (x >> 32) & c.setMask
}

// Probe reports whether the line is resident, without touching LRU state
// or statistics. Used by issue logic to pre-check structural capacity.
func (c *Cache) Probe(lineAddr uint64) bool {
	set := c.sets[c.setIndex(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// ProbeMiss reports whether accessing the line would require a *new*
// MSHR allocation (i.e. it is neither resident nor already outstanding).
func (c *Cache) ProbeMiss(lineAddr uint64) bool {
	if c.Probe(lineAddr) {
		return false
	}
	return c.mshrs.get(lineAddr) == nil
}

// Epoch returns a counter that advances whenever a Probe, ProbeMiss or
// CanMerge answer may change; while it stands still every probe repeats
// its last answer.
func (c *Cache) Epoch() uint64 { return c.epoch }

// MSHRFree returns the number of unallocated MSHR entries.
func (c *Cache) MSHRFree() int { return c.mshrLimit - c.mshrs.len() }

// CanMerge reports whether a load to a line with an outstanding miss
// could still join its MSHR entry. It returns true for lines with no
// outstanding miss.
func (c *Cache) CanMerge(lineAddr uint64) bool {
	e := c.mshrs.get(lineAddr)
	return e == nil || len(e.waiters) < c.cfg.MSHRMaxMerged
}

// Access performs a load (write=false) or store (write=true) for waiter.
//
// Loads: Hit touches LRU; Miss allocates an MSHR recording waiter;
// MissMerged appends waiter to the existing entry; Stall means MSHR
// capacity was exhausted and nothing changed.
//
// Stores: with write-allocate the store behaves like a load that also
// dirties the line when it (eventually) arrives — on miss the waiter is
// recorded so the fill can complete it. Without write-allocate a store
// miss returns Bypass and the line is not cached; a store hit updates
// the line in place (dirtying it only under write-back).
//
// owner attributes the line for write-back accounting.
func (c *Cache) Access(lineAddr uint64, write bool, waiter uint64, owner int16) AccessResult {
	set := c.sets[c.setIndex(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			c.useClock++
			set[i].lastUse = c.useClock
			if write {
				if c.cfg.WriteBack {
					set[i].dirty = true
					set[i].owner = owner
				}
				// Write-through: the caller forwards the write
				// downstream; the resident copy stays clean.
			}
			c.stats.Accesses++
			c.stats.Hits++
			return Hit
		}
	}
	if write && !c.cfg.WriteAllocate {
		c.stats.Accesses++
		c.stats.Misses++
		return Bypass
	}
	if e := c.mshrs.get(lineAddr); e != nil {
		if len(e.waiters) >= c.cfg.MSHRMaxMerged {
			c.stats.Stalls++
			return Stall
		}
		e.waiters = append(e.waiters, waiter)
		c.epoch++
		c.stats.Accesses++
		c.stats.Merged++
		return MissMerged
	}
	if c.mshrs.len() >= c.mshrLimit {
		c.stats.Stalls++
		return Stall
	}
	c.mshrs.insert(lineAddr, waiter)
	c.epoch++
	c.stats.Accesses++
	c.stats.Misses++
	return Miss
}

// Eviction describes a dirty line displaced by a fill; the caller must
// write it back downstream.
type Eviction struct {
	Line  uint64
	Owner int16
}

// Fill installs a line that arrived from downstream, releases its MSHR
// entry, and returns the recorded waiters plus an optional dirty victim.
// dirty marks the incoming line dirty immediately (write-allocate store
// miss completion).
//
// Filling a line with no outstanding MSHR entry is allowed (prefetch or
// write-validate style fills) and returns no waiters.
func (c *Cache) Fill(lineAddr uint64, owner int16, dirty bool) (waiters []uint64, ev Eviction, evicted bool) {
	c.epoch++
	waiters = c.mshrs.remove(lineAddr)
	set := c.sets[c.setIndex(lineAddr)]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			// Already resident (racing fill); just merge state.
			if dirty && c.cfg.WriteBack {
				set[i].dirty = true
				set[i].owner = owner
			}
			c.stats.Fills++
			return waiters, Eviction{}, false
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		c.stats.Evicts++
		if v.dirty {
			ev = Eviction{Line: v.tag, Owner: v.owner}
			evicted = true
		}
	}
	c.useClock++
	*v = line{tag: lineAddr, valid: true, dirty: dirty && c.cfg.WriteBack, owner: owner, lastUse: c.useClock}
	c.stats.Fills++
	return waiters, ev, evicted
}

// MarkDirty dirties a resident line (write-back write hit performed by a
// component that used Probe first). It reports whether the line was
// resident.
func (c *Cache) MarkDirty(lineAddr uint64, owner int16) bool {
	set := c.sets[c.setIndex(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].dirty = true
			set[i].owner = owner
			return true
		}
	}
	return false
}

// OutstandingMisses returns the number of allocated MSHR entries.
func (c *Cache) OutstandingMisses() int { return c.mshrs.len() }

// InvalidateAll drops every resident line (dirty contents are discarded;
// the simulator uses this only when an SM is handed to another
// application, where the synthetic address spaces are disjoint). MSHR
// state is preserved so in-flight fills still complete.
func (c *Cache) InvalidateAll() {
	c.epoch++
	for s := range c.sets {
		for i := range c.sets[s] {
			c.sets[s][i] = line{}
		}
	}
}

// ResidentLines returns the number of valid lines (test helper).
func (c *Cache) ResidentLines() int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid {
				n++
			}
		}
	}
	return n
}
