package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of samples using
// linear interpolation between closest ranks, the same estimator NumPy
// defaults to. The input need not be sorted; an empty input returns 0.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, 1, p)
}

// percentileSorted is Percentile over an already-sorted slice, each
// sample read as float64(v)/unit.
func percentileSorted[T float64 | uint32 | uint64 | int64](sorted []T, unit, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// NaN p compares false against both range checks below and would
	// otherwise flow into the index math; propagate it instead.
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return float64(sorted[0]) / unit
	}
	if p >= 100 {
		return float64(sorted[len(sorted)-1]) / unit
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return float64(sorted[lo]) / unit
	}
	frac := rank - float64(lo)
	return float64(sorted[lo])/unit*(1-frac) + float64(sorted[hi])/unit*frac
}

// Summary condenses a latency (or any scalar) sample set into the
// headline order statistics the fleet scheduler reports per job:
// wait and turnaround percentiles, plus range and mean.
type Summary struct {
	N    int
	Min  float64
	Mean float64
	Max  float64
	P50  float64
	P95  float64
	P99  float64
}

// Summarize computes a Summary over samples. An empty input yields the
// zero Summary.
func Summarize(samples []float64) Summary {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return SummarizeSorted(sorted, 1)
}

// SummarizeSorted is Summarize over samples already in ascending order,
// without copying them, each read as float64(v)/unit: float samples
// take unit 1, and cycle counts reported in kilocycles take unit 1000.
// The mean is summed in ascending order, as Summarize does, so any
// ascending arrangement of the same samples yields the same Summary.
// For a positive unit, float64(v)/unit is monotone in v, so ascending
// integers summarize bit for bit like Summarize over the converted
// floats, with no converted copy.
//
//simlint:hotpath
func SummarizeSorted[T float64 | uint32 | uint64 | int64](sorted []T, unit float64) Summary {
	if len(sorted) == 0 {
		return Summary{}
	}
	sum := 0.0
	for _, v := range sorted {
		sum += float64(v) / unit
	}
	return Summary{
		N:    len(sorted),
		Min:  float64(sorted[0]) / unit,
		Mean: sum / float64(len(sorted)),
		Max:  float64(sorted[len(sorted)-1]) / unit,
		P50:  percentileSorted(sorted, unit, 50),
		P95:  percentileSorted(sorted, unit, 95),
		P99:  percentileSorted(sorted, unit, 99),
	}
}

// String renders the summary as one deterministic line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f mean=%.1f",
		s.N, s.Min, s.P50, s.P95, s.P99, s.Max, s.Mean)
}
