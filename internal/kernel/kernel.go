// Package kernel models GPU kernels as grids of thread blocks (CTAs) of
// warps, and provides a parameterized synthetic program generator.
//
// Real Rodinia binaries are not available to an offline pure-Go
// reproduction, so workloads are expressed as seeded synthetic programs:
// a deterministic function from (warp, pc) to a warp-level instruction.
// The generator exposes the knobs that determine where an application
// lands in the paper's classification space (Table 3.1/3.2):
//
//   - MemEvery:        memory-to-compute ratio R
//   - Pattern:         row-buffer locality and cache hit rates
//   - FootprintBytes:  whether the working set fits in L1 / L2 / DRAM
//   - CoalescedLines:  per-access interconnect and cache pressure
//   - CTAs/WarpsPerCTA: available thread-level parallelism
package kernel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/rng"
)

// AccessPattern selects how a synthetic program generates global-memory
// addresses.
type AccessPattern int

const (
	// PatternStream walks the footprint sequentially per warp: perfectly
	// coalesced, row-buffer friendly, cache-averse (every line is new).
	// Typical of class M streaming kernels (BLK).
	PatternStream AccessPattern = iota
	// PatternStrided walks with a large stride: coalesced within the
	// warp but spreads across rows; moderate row locality. Typical of
	// class MC kernels (FFT, LPS).
	PatternStrided
	// PatternRandom draws a random block base per access and fetches the
	// coalesced lines contiguously from it (GUPS-style coalesced random
	// updates): row-local inside a burst, row-hostile across bursts, and
	// cache hostile throughout.
	PatternRandom
	// PatternHotset draws from a small hot region with probability
	// HotFraction and from the full footprint otherwise: high cache
	// locality with an irregular tail. Typical of class C kernels
	// (BFS2, SPMV).
	PatternHotset
)

// String returns the pattern name.
func (p AccessPattern) String() string {
	switch p {
	case PatternStream:
		return "stream"
	case PatternStrided:
		return "strided"
	case PatternRandom:
		return "random"
	case PatternHotset:
		return "hotset"
	default:
		return fmt.Sprintf("AccessPattern(%d)", int(p))
	}
}

// Params fully describes a synthetic kernel.
type Params struct {
	// Name labels the kernel in statistics and reports.
	Name string
	// CTAs is the grid size in thread blocks.
	CTAs int
	// WarpsPerCTA is the block size in warps.
	WarpsPerCTA int
	// InstrsPerWarp is the dynamic instruction count of each warp,
	// including the final EXIT.
	InstrsPerWarp int
	// MemEvery places one global-memory instruction every MemEvery
	// instructions; the memory-to-compute ratio R is roughly
	// 1/(MemEvery-1). Zero disables global memory accesses.
	MemEvery int
	// StoreFraction is the fraction of memory instructions that are
	// stores.
	StoreFraction float64
	// SFUFraction is the fraction of non-memory instructions that use
	// the special-function units.
	SFUFraction float64
	// SharedFraction is the fraction of non-memory instructions that
	// access scratchpad memory.
	SharedFraction float64
	// BarrierEvery inserts a block-wide barrier every BarrierEvery
	// instructions (0 disables barriers).
	BarrierEvery int
	// Pattern selects the address stream shape.
	Pattern AccessPattern
	// CoalescedLines is the number of distinct cache lines per memory
	// access (1 = fully coalesced; up to the warp size).
	CoalescedLines int
	// FootprintBytes is the kernel's global-memory working set.
	FootprintBytes uint64
	// HotBytes is the hot-region size for PatternHotset.
	HotBytes uint64
	// HotFraction is the probability an access falls in the hot region
	// for PatternHotset.
	HotFraction float64
	// StrideBytes is the inter-access stride for PatternStrided.
	StrideBytes uint64
	// RegsPerThread limits occupancy through register-file pressure.
	RegsPerThread int
	// SharedMemPerCTA limits occupancy through scratchpad pressure.
	SharedMemPerCTA int
	// Seed makes the program's address streams deterministic.
	Seed uint64
}

// Validate reports a descriptive error for inconsistent parameters.
func (p Params) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("kernel: empty name")
	}
	if p.CTAs <= 0 || p.WarpsPerCTA <= 0 || p.InstrsPerWarp <= 0 {
		return fmt.Errorf("kernel %s: grid/block/program sizes must be positive (got %d/%d/%d)",
			p.Name, p.CTAs, p.WarpsPerCTA, p.InstrsPerWarp)
	}
	if p.MemEvery < 0 || p.MemEvery == 1 {
		return fmt.Errorf("kernel %s: MemEvery must be 0 or >= 2 (got %d)", p.Name, p.MemEvery)
	}
	if p.MemEvery > 0 {
		if p.CoalescedLines <= 0 || p.CoalescedLines > 32 {
			return fmt.Errorf("kernel %s: CoalescedLines must be in [1,32] (got %d)", p.Name, p.CoalescedLines)
		}
		if p.FootprintBytes == 0 {
			return fmt.Errorf("kernel %s: memory kernel needs a footprint", p.Name)
		}
	}
	if p.StoreFraction < 0 || p.StoreFraction > 1 ||
		p.SFUFraction < 0 || p.SFUFraction > 1 ||
		p.SharedFraction < 0 || p.SharedFraction > 1 {
		return fmt.Errorf("kernel %s: fractions must be in [0,1]", p.Name)
	}
	if p.SFUFraction+p.SharedFraction > 1 {
		return fmt.Errorf("kernel %s: SFU+Shared fractions exceed 1", p.Name)
	}
	if p.Pattern == PatternHotset && (p.HotBytes == 0 || p.HotFraction <= 0) {
		return fmt.Errorf("kernel %s: hotset pattern needs HotBytes and HotFraction", p.Name)
	}
	if p.Pattern == PatternStrided && p.StrideBytes == 0 {
		return fmt.Errorf("kernel %s: strided pattern needs StrideBytes", p.Name)
	}
	if p.RegsPerThread < 0 || p.SharedMemPerCTA < 0 {
		return fmt.Errorf("kernel %s: occupancy costs must be non-negative", p.Name)
	}
	return nil
}

// TotalWarps returns the number of warps in the grid.
func (p Params) TotalWarps() int { return p.CTAs * p.WarpsPerCTA }

// TotalInstrs returns the dynamic instruction count of the whole grid.
func (p Params) TotalInstrs() uint64 {
	return uint64(p.TotalWarps()) * uint64(p.InstrsPerWarp)
}

// MaxCTAsPerSM returns the occupancy bound of this kernel on the given
// device: the minimum over the block-slot, warp-slot, register-file and
// scratchpad limits, but at least 1 so any kernel can make progress.
func (p Params) MaxCTAsPerSM(cfg config.GPUConfig) int {
	limit := cfg.MaxBlocksPerSM
	if byWarps := cfg.MaxWarpsPerSM / p.WarpsPerCTA; byWarps < limit {
		limit = byWarps
	}
	if p.RegsPerThread > 0 {
		regsPerCTA := p.RegsPerThread * cfg.WarpSize * p.WarpsPerCTA
		if byRegs := cfg.RegistersPerSM / regsPerCTA; byRegs < limit {
			limit = byRegs
		}
	}
	if p.SharedMemPerCTA > 0 {
		if byShmem := cfg.SharedMemPerSM / p.SharedMemPerCTA; byShmem < limit {
			limit = byShmem
		}
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// Kernel is a launchable instance of a synthetic program. BaseAddr places
// the kernel's footprint in the device address space so that concurrently
// running kernels do not share cache lines.
type Kernel struct {
	Params
	// BaseAddr is the start of this instance's address range.
	BaseAddr uint64

	lineBytes uint64
	// footMask and hotMask select lines within the footprint and hot
	// region. Footprints are rounded down to a power of two in lines so
	// address arithmetic is mask-based (this is the hot loop of the
	// whole simulator); the rounding is at most 2x and irrelevant to
	// classification behaviour.
	footMask    uint64
	hotMask     uint64
	perWarp     uint64
	strideLines uint64

	// seedMix caches Mix64(Seed) so the per-fetch hash chain starts one
	// avalanche round in: Hash3(Seed,b,c) == Mix64(Mix64(seedMix^b)^c).
	seedMix uint64
	// sfuThresh/sharedThresh/storeThresh/hotThresh are the fraction knobs lifted
	// into the integer domain of the hash (h>>11 holds 53 uniform bits),
	// so the op mix needs no int-to-float conversion or division per
	// fetch. Comparisons are bit-identical to rng.Float64(h) < frac.
	sfuThresh    uint64
	sharedThresh uint64
	storeThresh  uint64
	hotThresh    uint64
	// plainOps short-circuits Fetch when every non-memory instruction is
	// a plain ALU op (no SFU/shared mix to draw). Such a kernel's unit
	// codes depend on the pc alone, so its op table is one row.
	plainOps bool
	// pcKind caches, per program counter, whether the slot is a plain
	// compute op, a memory access or a barrier — the two runtime modulos
	// this replaces sit on the hottest line of the simulator.
	pcKind []uint8
	// ops holds the functional unit (a 2-bit Unit code, four per byte)
	// of every (warp, pc) for grids within the table cap: one row of
	// rowBytes per warp, or a single row every warp shares when the
	// kernel has no SFU or shared mix. The op stream is a pure function
	// of the seed and the mix knobs, and the same kernel parameters are
	// simulated many times across the pipeline (per-SM-count profiles,
	// all-pairs co-runs, fleet groups), so the table is shared
	// process-wide and the SM retires a compute op off one code without
	// hashing. Loads, stores, barriers and exits all read UnitOther:
	// Fetch derives them, and memory addresses are drawn per access.
	// Nil for grids above the cap.
	ops      []uint8
	rowBytes int
}

// Unit is the op table's 2-bit code for an instruction: the functional
// unit that retires a compute op, or UnitOther for everything Fetch
// must resolve.
type Unit uint8

const (
	// UnitALU retires on the SP units (OpALU; OpNop too).
	UnitALU Unit = iota
	// UnitSFU retires on the special-function units.
	UnitSFU
	// UnitShared is a scratchpad access.
	UnitShared
	// UnitOther is a load, store, barrier or exit.
	UnitOther
)

// UnitOf returns the op table's code for op.
func UnitOf(op isa.Op) Unit {
	switch op {
	case isa.OpNop, isa.OpALU:
		return UnitALU
	case isa.OpSFU:
		return UnitSFU
	case isa.OpShared:
		return UnitShared
	}
	return UnitOther
}

// RowUnit returns the code at pc of a row that OpsRow returned.
func RowUnit(row []uint8, pc int) Unit {
	return Unit(row[pc>>2]>>(uint(pc&3)*2)) & 3
}

// maxOpsBytes caps the per-kernel op table at 4 MiB (grids of up to
// 16M dynamic instructions); larger grids fall back to hashing per
// fetch.
const maxOpsBytes = 4 << 20

// opsKey identifies an op table: every parameter that influences the
// per-(warp, pc) unit code, and nothing else, so distinct footprints,
// access patterns or store mixes still share one table.
type opsKey struct {
	seed                   uint64
	instrs, warps          int
	memEvery, barrierEvery int
	sfu, shared            float64
}

// opsCache shares op tables across kernel instances; concurrent misses
// may build the same table twice, which is harmless (identical bytes).
var opsCache sync.Map

// pcKind values.
const (
	pcCompute uint8 = iota
	pcMem
	pcBarrier
	pcExit
)

// fracThreshold lifts a [0,1] fraction into the 53-bit integer domain:
// x < thresh  ⇔  float64(x)/2^53 < frac  for every integer x in
// [0, 2^53). float64(x) is exact at 53 bits and x is an integer, so
// x < frac*2^53 ⇔ x < ceil(frac*2^53), with the boundary (frac*2^53
// integral) exact in both forms.
func fracThreshold(frac float64) uint64 {
	return uint64(math.Ceil(frac * (1 << 53)))
}

// sharedOps returns the grid's unit-code table, building it on first
// use and sharing it process-wide across kernel instances with the same
// op-relevant parameters. rows is 1 for a kernel with no SFU or shared
// mix and the grid's warp count otherwise. Codes are UnitOf the hash
// derivation (OpAt), so a kernel with a table executes the same program
// as one without.
func (k *Kernel) sharedOps(rows int) []uint8 {
	key := opsKey{
		seed:         k.Seed,
		instrs:       k.InstrsPerWarp,
		warps:        k.TotalWarps(),
		memEvery:     k.MemEvery,
		barrierEvery: k.BarrierEvery,
		sfu:          k.SFUFraction,
		shared:       k.SharedFraction,
	}
	if cached, ok := opsCache.Load(key); ok {
		return cached.([]uint8)
	}
	ops := make([]uint8, rows*k.rowBytes)
	for warp := 0; warp < rows; warp++ {
		row := ops[warp*k.rowBytes:]
		for pc := 0; pc < k.InstrsPerWarp; pc++ {
			row[pc>>2] |= uint8(UnitOf(k.OpAt(warp, pc))) << (uint(pc&3) * 2)
		}
	}
	opsCache.Store(key, ops)
	return ops
}

// pow2Floor returns the largest power of two <= v, and at least 1.
func pow2Floor(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	p := uint64(1)
	for p<<1 <= v && p<<1 != 0 {
		p <<= 1
	}
	return p
}

// New validates params and binds the program to a device line size.
// BaseAddr may be set afterwards (it defaults to 0).
func New(p Params, lineBytes int) (*Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("kernel %s: line size must be a positive power of two (got %d)", p.Name, lineBytes)
	}
	k := &Kernel{Params: p, lineBytes: uint64(lineBytes)}
	k.seedMix = rng.Mix64(p.Seed)
	k.sfuThresh = fracThreshold(p.SFUFraction)
	k.sharedThresh = fracThreshold(p.SFUFraction + p.SharedFraction)
	k.storeThresh = fracThreshold(p.StoreFraction)
	k.hotThresh = fracThreshold(p.HotFraction)
	k.plainOps = p.SFUFraction == 0 && p.SharedFraction == 0
	k.pcKind = make([]uint8, p.InstrsPerWarp)
	for pc := 0; pc < p.InstrsPerWarp; pc++ {
		// Mirrors Fetch's slot arithmetic: +1 so pc 0 is never a barrier
		// or a memory op, and the last pc is the exit.
		slot := pc + 1
		switch {
		case pc >= p.InstrsPerWarp-1:
			k.pcKind[pc] = pcExit
		case p.BarrierEvery > 0 && slot%p.BarrierEvery == 0:
			k.pcKind[pc] = pcBarrier
		case p.MemEvery > 0 && slot%p.MemEvery == 0:
			k.pcKind[pc] = pcMem
		default:
			k.pcKind[pc] = pcCompute
		}
	}
	k.rowBytes = (p.InstrsPerWarp + 3) / 4
	rows := p.TotalWarps()
	if k.plainOps {
		rows = 1
	}
	if rows <= maxOpsBytes/k.rowBytes {
		k.ops = k.sharedOps(rows)
	}
	if p.MemEvery > 0 {
		footLines := pow2Floor(p.FootprintBytes / k.lineBytes)
		k.footMask = footLines - 1
		k.hotMask = pow2Floor(p.HotBytes/k.lineBytes) - 1
		k.perWarp = footLines / uint64(p.TotalWarps())
		if k.perWarp == 0 {
			k.perWarp = 1
		}
		k.strideLines = p.StrideBytes / k.lineBytes
		if k.strideLines == 0 {
			k.strideLines = 1
		}
	}
	return k, nil
}

// MustNew is New for static kernel tables; it panics on invalid params.
func MustNew(p Params, lineBytes int) *Kernel {
	k, err := New(p, lineBytes)
	if err != nil {
		panic(err)
	}
	return k
}

// Fetch returns the instruction at (warp, pc). Memory instructions write
// their coalesced line addresses into buf, which must have capacity for
// CoalescedLines entries; the returned Instr aliases buf.
//
// The instruction mix is a deterministic function of (Seed, warp, pc), so
// a warp's stream can be replayed at any point without storage.
func (k *Kernel) Fetch(warp, pc int, buf []uint64) isa.Instr {
	op := k.OpAt(warp, pc)
	if op == isa.OpLoad || op == isa.OpStore {
		return isa.Instr{Op: op, Lines: k.memLines(warp, pc, buf)}
	}
	return isa.Instr{Op: op}
}

// OpsRow returns the warp's row of unit codes (indexed by pc through
// RowUnit, covering every pc including the exit), or nil when the grid
// exceeds the op table cap. SMs hold the row per resident warp, so the
// compute fast path is one 2-bit lookup.
func (k *Kernel) OpsRow(warp int) []uint8 {
	if k.ops == nil || k.plainOps {
		return k.ops
	}
	return k.ops[warp*k.rowBytes : (warp+1)*k.rowBytes]
}

// OpAt derives the opcode at (warp, pc) from the seed and the mix
// knobs, with no address generation. Bit-identical to Fetch(warp, pc,
// ...).Op.
func (k *Kernel) OpAt(warp, pc int) isa.Op {
	if pc >= k.InstrsPerWarp-1 {
		return isa.OpExit
	}
	switch k.pcKind[pc] {
	case pcBarrier:
		return isa.OpBarrier
	case pcMem:
		op := isa.OpLoad
		if k.StoreFraction > 0 {
			h := rng.Mix64(rng.Mix64(k.seedMix^(uint64(warp)<<20|uint64(pc))) ^ 0x53)
			if h>>11 < k.storeThresh {
				op = isa.OpStore
			}
		}
		return op
	}
	if k.plainOps {
		return isa.OpALU
	}
	h := rng.Mix64(rng.Mix64(k.seedMix^(uint64(warp)<<20|uint64(pc))) ^ 0x41)
	switch x := h >> 11; {
	case x < k.sfuThresh:
		return isa.OpSFU
	case x < k.sharedThresh:
		return isa.OpShared
	default:
		return isa.OpALU
	}
}

// memLines fills buf with the coalesced line addresses of the memory
// access at (warp, pc).
func (k *Kernel) memLines(warp, pc int, buf []uint64) []uint64 {
	n := k.CoalescedLines
	if n > len(buf) {
		n = len(buf)
	}
	lines := buf[:0]
	memIdx := uint64(pc / k.MemEvery) // ordinal of this memory access in the warp's stream
	for i := 0; i < n; i++ {
		lines = append(lines, k.address(uint64(warp), memIdx, uint64(i)))
	}
	return lines
}

// address computes the i-th coalesced line of the memIdx-th memory access
// of a warp, according to the kernel's access pattern.
func (k *Kernel) address(warp, memIdx, i uint64) uint64 {
	var line uint64
	switch k.Pattern {
	case PatternStream:
		// Each warp streams through its own contiguous chunk; bursts are
		// aligned to their own size so they do not straddle DRAM rows.
		base := (warp*k.perWarp + memIdx*uint64(k.CoalescedLines)) &^ uint64(k.CoalescedLines-1)
		line = (base + i) & k.footMask
	case PatternStrided:
		line = (warp + (memIdx+i)*k.strideLines) & k.footMask
	case PatternRandom:
		base := rng.Mix64(rng.Mix64(k.seedMix^warp)^memIdx) &^ uint64(k.CoalescedLines-1)
		line = (base + i) & k.footMask
	case PatternHotset:
		h := rng.Mix64(rng.Mix64(rng.Mix64(k.seedMix^warp)^memIdx) ^ i)
		if h>>11 < k.hotThresh {
			line = rng.Mix64(h) & k.hotMask
		} else {
			line = rng.Mix64(h^0xabcd) & k.footMask
		}
	}
	return k.BaseAddr + line*k.lineBytes
}
