package stats

import (
	"math/bits"
	"slices"
)

// The LSD radix sort's digit: 11 bits, so a 2048-bucket count array per
// pass, and at most six passes over a full 64-bit range.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// radixCutoff is the length below which SortUnsigned hands its input
// to slices.Sort: clearing and prefix-summing 2048 buckets per pass
// costs more than a comparison sort of fewer values. On three-pass
// (30-bit) values the two break even near 1024: 4.0 µs against 8.2 µs
// at 256 values, 22.5 µs against 21.1 µs at 1024 (2-vCPU Xeon, Go 1.24).
const radixCutoff = 1024

// SortUnsigned sorts v ascending. Inputs of radixCutoff values or more
// take an LSD radix sort over 11-bit digits, with only as many passes as
// the largest value needs: three for values below 2^33 (cycle counts
// up to about 8.6 billion), so at most three for uint32. scratch must
// hold at least len(v) values; the sort uses it as the other half of
// each pass and leaves it overwritten. Shorter inputs leave scratch
// untouched.
//
//simlint:hotpath
func SortUnsigned[T uint32 | uint64](v, scratch []T) {
	n := len(v)
	if n < radixCutoff {
		slices.Sort(v)
		return
	}
	// The OR of the values has the largest value's highest set bit.
	var or T
	for _, x := range v {
		or |= x
	}
	passes := (bits.Len64(uint64(or)) + radixBits - 1) / radixBits
	src, dst := v, scratch[:n]
	var count [1 << radixBits]int
	for p := 0; p < passes; p++ {
		shift := uint(p * radixBits)
		clear(count[:])
		for _, x := range src {
			count[x>>shift&radixMask]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, x := range src {
			d := x >> shift & radixMask
			dst[count[d]] = x
			count[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(v, src)
	}
}
