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
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile over an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// NaN p compares false against both range checks below and would
	// otherwise flow into the index math; propagate it instead.
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
	return SummarizeSorted(sorted)
}

// SummarizeSorted is Summarize over samples already in ascending order,
// without copying them. The mean is summed in ascending order, as
// Summarize does, so any ascending arrangement of the same samples
// yields the same Summary.
func SummarizeSorted(sorted []float64) Summary {
	if len(sorted) == 0 {
		return Summary{}
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		N:    len(sorted),
		Min:  sorted[0],
		Mean: sum / float64(len(sorted)),
		Max:  sorted[len(sorted)-1],
		P50:  percentileSorted(sorted, 50),
		P95:  percentileSorted(sorted, 95),
		P99:  percentileSorted(sorted, 99),
	}
}

// String renders the summary as one deterministic line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f mean=%.1f",
		s.N, s.Min, s.P50, s.P95, s.P99, s.Max, s.Mean)
}
