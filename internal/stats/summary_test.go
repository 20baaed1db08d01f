package stats

import (
	"math"
	"sort"
	"testing"
)

func TestPercentile(t *testing.T) {
	tests := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty", nil, 50, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"pair p50 interpolates", []float64{10, 20}, 50, 15},
		{"pair p25 interpolates", []float64{10, 20}, 25, 12.5},
		{"unsorted input", []float64{30, 10, 20}, 50, 20},
		{"five p50", []float64{1, 2, 3, 4, 5}, 50, 3},
		{"five p95", []float64{1, 2, 3, 4, 5}, 95, 4.8},
		{"five p100", []float64{1, 2, 3, 4, 5}, 100, 5},
		{"below range clamps", []float64{1, 2, 3}, -5, 1},
		{"above range clamps", []float64{1, 2, 3}, 120, 3},
		{"duplicates", []float64{4, 4, 4, 4}, 99, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Percentile(tt.samples, tt.p)
			if math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("Percentile(%v, %v) = %v, want %v", tt.samples, tt.p, got, tt.want)
			}
		})
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

// TestPercentileNaNP locks that a NaN percentile propagates as NaN
// instead of panicking: NaN compares false against both range clamps,
// so without an explicit guard it reached the rank/index arithmetic
// and indexed out of range.
func TestPercentileNaNP(t *testing.T) {
	got := Percentile([]float64{1, 2, 3}, math.NaN())
	if !math.IsNaN(got) {
		t.Fatalf("Percentile(_, NaN) = %v, want NaN", got)
	}
	if got := Percentile(nil, math.NaN()); got != 0 {
		t.Fatalf("Percentile(nil, NaN) = %v, want 0 (empty-input lock)", got)
	}
}

// TestPercentileInfSamples locks behavior on infinite samples: they
// sort to the extremes and interpolation involving them follows IEEE
// arithmetic, with no panic.
func TestPercentileInfSamples(t *testing.T) {
	in := []float64{math.Inf(1), 1, math.Inf(-1)}
	if got := Percentile(in, 0); !math.IsInf(got, -1) {
		t.Fatalf("p0 = %v, want -Inf", got)
	}
	if got := Percentile(in, 100); !math.IsInf(got, 1) {
		t.Fatalf("p100 = %v, want +Inf", got)
	}
	if got := Percentile(in, 50); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
}

// TestPercentileInfP locks that infinite p hits the range clamps like
// any other out-of-range value.
func TestPercentileInfP(t *testing.T) {
	in := []float64{1, 2, 3}
	if got := Percentile(in, math.Inf(-1)); got != 1 {
		t.Fatalf("p=-Inf = %v, want min", got)
	}
	if got := Percentile(in, math.Inf(1)); got != 3 {
		t.Fatalf("p=+Inf = %v, want max", got)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestSummarize(t *testing.T) {
	tests := []struct {
		name    string
		samples []float64
		want    Summary
	}{
		{"empty", nil, Summary{}},
		{"single", []float64{5}, Summary{N: 1, Min: 5, Mean: 5, Max: 5, P50: 5, P95: 5, P99: 5}},
		{
			"uniform 1..100",
			seq(1, 100),
			Summary{N: 100, Min: 1, Mean: 50.5, Max: 100, P50: 50.5, P95: 95.05, P99: 99.01},
		},
		{
			"unsorted",
			[]float64{20, 10, 40, 30},
			Summary{N: 4, Min: 10, Mean: 25, Max: 40, P50: 25, P95: 38.5, P99: 39.7},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.samples)
			sorted := append([]float64(nil), tt.samples...)
			sort.Float64s(sorted)
			if s := SummarizeSorted(sorted); s != got {
				t.Fatalf("SummarizeSorted = %+v, Summarize = %+v", s, got)
			}
			fields := []struct {
				name      string
				got, want float64
			}{
				{"Min", got.Min, tt.want.Min},
				{"Mean", got.Mean, tt.want.Mean},
				{"Max", got.Max, tt.want.Max},
				{"P50", got.P50, tt.want.P50},
				{"P95", got.P95, tt.want.P95},
				{"P99", got.P99, tt.want.P99},
			}
			if got.N != tt.want.N {
				t.Fatalf("N = %d, want %d", got.N, tt.want.N)
			}
			for _, f := range fields {
				if math.Abs(f.got-f.want) > 1e-9 {
					t.Fatalf("%s = %v, want %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

func seq(lo, hi int) []float64 {
	var out []float64
	for v := lo; v <= hi; v++ {
		out = append(out, float64(v))
	}
	return out
}
