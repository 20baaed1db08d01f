package kernel_test

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/testkit"
	"repro/internal/workloads"
)

// wantUnit is the oracle's own op-to-unit mapping, written out apart
// from kernel.UnitOf so that a table built with swapped codes fails.
// ok is false for an op no synthetic program draws.
func wantUnit(op isa.Op) (u kernel.Unit, ok bool) {
	switch op {
	case isa.OpALU:
		return kernel.UnitALU, true
	case isa.OpSFU:
		return kernel.UnitSFU, true
	case isa.OpShared:
		return kernel.UnitShared, true
	case isa.OpLoad, isa.OpStore, isa.OpBarrier, isa.OpExit:
		return kernel.UnitOther, true
	}
	return 0, false
}

// mixGrids returns small synthetic grids over every combination of the
// SFU, shared, store and barrier settings. 37 instructions per warp
// leave the last byte of each row part-filled.
func mixGrids() []kernel.Params {
	var out []kernel.Params
	for _, sfu := range []float64{0, 0.3} {
		for _, shared := range []float64{0, 0.25} {
			for _, store := range []float64{0, 0.5} {
				for _, barrier := range []int{0, 7} {
					out = append(out, kernel.Params{
						Name: fmt.Sprintf("mix-sfu%g-sh%g-st%g-bar%d", sfu, shared, store, barrier),
						CTAs: 5, WarpsPerCTA: 3, InstrsPerWarp: 37,
						MemEvery: 3, StoreFraction: store,
						SFUFraction: sfu, SharedFraction: shared, BarrierEvery: barrier,
						Pattern: kernel.PatternStream, CoalescedLines: 2,
						FootprintBytes: 1 << 20, Seed: uint64(len(out) + 1),
					})
				}
			}
		}
	}
	return out
}

// TestOpTableMatchesHash checks every (warp, pc) of the suite, the
// testkit universe and the synthetic mix grids: the op table's code
// must be the unit of the op the hash derivation draws, and a kernel
// with no SFU or shared mix must hold a single row for all its warps.
func TestOpTableMatchesHash(t *testing.T) {
	grids := append(append(workloads.All(), testkit.Universe()...), mixGrids()...)
	for _, p := range grids {
		k := kernel.MustNew(p, 128)
		if k.OpsRow(0) == nil {
			t.Fatalf("%s: no op table", p.Name)
		}
		plain := p.SFUFraction == 0 && p.SharedFraction == 0
		rows := kernel.OpTableRows(k)
		if plain && rows != 1 || !plain && rows != p.TotalWarps() {
			t.Errorf("%s: op table holds %d rows, want %d (plain %v)", p.Name, rows, p.TotalWarps(), plain)
		}
		var seen [4]int
		for w := 0; w < p.TotalWarps(); w++ {
			row := k.OpsRow(w)
			for pc := 0; pc < p.InstrsPerWarp; pc++ {
				op := k.OpAt(w, pc)
				want, ok := wantUnit(op)
				if !ok {
					t.Fatalf("%s warp %d pc %d: unexpected op %v", p.Name, w, pc, op)
				}
				if got := kernel.RowUnit(row, pc); got != want {
					t.Fatalf("%s warp %d pc %d: table code %d, want %d for %v", p.Name, w, pc, got, want, op)
				}
				seen[want]++
			}
		}
		if p.SFUFraction > 0 && seen[kernel.UnitSFU] == 0 || p.SharedFraction > 0 && seen[kernel.UnitShared] == 0 {
			t.Errorf("%s: mix draws no SFU or no shared op (%v)", p.Name, seen)
		}
	}
}

// TestOpTableCap checks that a grid past the table cap keeps no table,
// while a plain kernel's single row stays under it at any grid size.
func TestOpTableCap(t *testing.T) {
	p := kernel.Params{
		Name: "huge", CTAs: 1 << 16, WarpsPerCTA: 8, InstrsPerWarp: 64,
		MemEvery: 4, SFUFraction: 0.2, Pattern: kernel.PatternStream,
		CoalescedLines: 1, FootprintBytes: 1 << 20, Seed: 3,
	}
	if k := kernel.MustNew(p, 128); k.OpsRow(0) != nil || kernel.OpTableBytes(k) != 0 {
		t.Errorf("%d-warp grid of %d instructions keeps an op table", p.TotalWarps(), p.InstrsPerWarp)
	}
	p.SFUFraction = 0
	if k := kernel.MustNew(p, 128); kernel.OpTableBytes(k) != p.InstrsPerWarp/4 {
		t.Errorf("plain grid's op table holds %d bytes, want one %d-byte row", kernel.OpTableBytes(k), p.InstrsPerWarp/4)
	}
}

// TestSuiteOpTableBytes bounds the op tables of the 14-application
// suite, which every solo profile, pair co-run and fleet group shares
// process-wide for the life of the process. One byte per dynamic
// instruction would take 10.5 MiB; the bound leaves room for 2-bit
// codes and fails for anything near a byte.
func TestSuiteOpTableBytes(t *testing.T) {
	const maxBytes = 2 << 20
	total := 0
	for _, p := range workloads.All() {
		n := kernel.OpTableBytes(kernel.MustNew(p, 128))
		t.Logf("%-5s %9d B", p.Name, n)
		total += n
	}
	t.Logf("suite  %9d B", total)
	if total > maxBytes {
		t.Fatalf("suite op tables hold %d bytes, want at most %d", total, maxBytes)
	}
}
