package stats

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestSortUint64MatchesSlicesSort checks SortUnsigned against
// slices.Sort on random, all-equal, sorted, reversed and full-range
// inputs, at lengths around the small-input cutoff and at 100k, at both
// widths: the uint32 subtests sort each input truncated to its low 32
// bits, so the full 64-bit range becomes the full 32-bit range.
func TestSortUint64MatchesSlicesSort(t *testing.T) {
	inputs := map[string]func(s *rng.Stream, n int) []uint64{
		"random": func(s *rng.Stream, n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = uint64(s.Intn(1 << 30))
			}
			return v
		},
		"ties": func(s *rng.Stream, n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = uint64(s.Intn(5)) * 1000
			}
			return v
		},
		"all equal": func(s *rng.Stream, n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = 123_456_789
			}
			return v
		},
		"all zero": func(s *rng.Stream, n int) []uint64 { return make([]uint64, n) },
		"sorted": func(s *rng.Stream, n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = uint64(i) * 7919
			}
			return v
		},
		"reversed": func(s *rng.Stream, n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = uint64(n-i) << 20
			}
			return v
		},
		"full 64-bit range": func(s *rng.Stream, n int) []uint64 {
			v := make([]uint64, n)
			for i := range v {
				v[i] = s.Next()
			}
			if n > 1 {
				v[0], v[n-1] = math.MaxUint64, 0
			}
			return v
		},
	}
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, n := range []int{0, 1, radixCutoff - 1, radixCutoff, radixCutoff + 1, 100_000} {
			input := func() []uint64 { return inputs[name](rng.NewStream(uint64(n)+1), n) }
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				checkSort(t, input())
			})
			t.Run(fmt.Sprintf("uint32/%s/%d", name, n), func(t *testing.T) {
				v := input()
				narrow := make([]uint32, len(v))
				for i, x := range v {
					narrow[i] = uint32(x)
				}
				checkSort(t, narrow)
			})
		}
	}
}

// checkSort sorts v with SortUnsigned and fails unless the result
// equals slices.Sort's.
func checkSort[T uint32 | uint64](t *testing.T, v []T) {
	t.Helper()
	want := slices.Clone(v)
	slices.Sort(want)
	SortUnsigned(v, make([]T, len(v)))
	if !slices.Equal(v, want) {
		t.Fatalf("SortUnsigned disagrees with slices.Sort")
	}
}

// sameBits reports whether two summaries are equal bit for bit, so a
// negative zero cannot pass for a positive one.
func sameBits(a, b Summary) bool {
	fa := []float64{a.Min, a.Mean, a.Max, a.P50, a.P95, a.P99}
	fb := []float64{b.Min, b.Mean, b.Max, b.P50, b.P95, b.P99}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.N == b.N
}

// floatSummary is the reference the integer summary must match bit for
// bit: the float algorithm written out independently of the package's
// shared helpers. It sorts a copy, sums it in ascending order and
// interpolates each percentile between closest ranks.
func floatSummary(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	v := slices.Clone(samples)
	slices.Sort(v)
	n := len(v)
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	pct := func(p float64) float64 {
		r := p / 100 * float64(n-1)
		lo, hi := int(math.Floor(r)), int(math.Ceil(r))
		if lo == hi {
			return v[lo]
		}
		frac := r - float64(lo)
		return v[lo]*(1-frac) + v[hi]*frac
	}
	return Summary{N: n, Min: v[0], Mean: sum / float64(n), Max: v[n-1], P50: pct(50), P95: pct(95), P99: pct(99)}
}

// TestSummarizeSortedIntegers checks the integer summary
// against Summarize and against the float reference over the converted
// samples, float64(v)/1000, on unsigned and signed samples with ties,
// zeros, negatives and values up to 2^53; the unsigned samples that fit
// are also summarized as uint32.
func TestSummarizeSortedIntegers(t *testing.T) {
	s := rng.NewStream(0x5EED)
	draw := func(kind int) int64 {
		switch kind {
		case 0: // ties on a coarse grid, zeros included
			return int64(s.Intn(6)) * 500
		case 1: // cycle counts
			return int64(s.Intn(1 << 30))
		default: // up to 2^53
			return int64(s.Next() >> 11)
		}
	}
	for _, n := range []int{0, 1, 2, 3, 7, 100, radixCutoff + 1, 5000} {
		for kind := 0; kind < 3; kind++ {
			u := make([]uint64, n)
			uf := make([]float64, n)
			sg := make([]int64, n)
			sf := make([]float64, n)
			for i := 0; i < n; i++ {
				v := draw(kind)
				u[i], uf[i] = uint64(v), float64(uint64(v))/1000
				if s.Intn(3) == 0 {
					v = -v
				}
				sg[i], sf[i] = v, float64(v)/1000
			}
			SortUnsigned(u, make([]uint64, n))
			slices.Sort(sg)
			type check struct {
				name string
				got  Summary
				in   []float64
			}
			checks := []check{
				{"uint64", SummarizeSorted(u, 1000), uf},
				{"int64", SummarizeSorted(sg, 1000), sf},
			}
			if kind < 2 {
				u32 := make([]uint32, n)
				for i, v := range u {
					u32[i] = uint32(v)
				}
				checks = append(checks, check{"uint32", SummarizeSorted(u32, 1000), uf})
			}
			for _, c := range checks {
				if want := floatSummary(c.in); !sameBits(c.got, want) || !sameBits(Summarize(c.in), want) {
					t.Errorf("%s n=%d kind=%d: %+v, Summarize %+v, want %+v", c.name, n, kind, c.got, Summarize(c.in), want)
				}
			}
		}
	}
	if got := SummarizeSorted([]uint64{1 << 53}, 1000); got.Max != float64(1<<53)/1000 {
		t.Errorf("2^53 sample: max %v", got.Max)
	}
}
