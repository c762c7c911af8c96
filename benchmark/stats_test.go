package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 90, 7},
		{"median of ten is the fifth", ten, 50, 5},
		{"p90 of ten is the ninth", ten, 90, 9},
		{"p100 is the largest", ten, 100, 10},
		{"p1 is the smallest", ten, 1, 1},
		{"median of three", []float64{3, 1, 2}, 50, 2},
		{"p90 of a hundred leaves ten beyond", seq(100), 90, 90},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("%s: percentile(p=%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same values.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		values      []float64
		q1, med, q3 float64
	}{
		{[]float64{4}, 4, 4, 4},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{100, 103, 98, 120, 101, 99, 102, 97, 104, 100}, 98.75, 100.5, 103.25},
	}
	for _, c := range cases {
		s := summarize(c.values, "ms")
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.Runs != len(c.values) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v runs %d, want %v %v %v", c.values, s.Q1, s.Median, s.Q3, s.Runs, c.q1, c.med, c.q3)
		}
	}
	s := summarize([]float64{100, 103, 98, 120, 101, 99, 102, 97, 104, 100}, "ms")
	if got, want := s.spread(), 4.5/100.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("spread of a zero median = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	at := func(median, q1, q3 float64) summary { return summary{Median: median, Q1: q1, Q3: q3, Runs: 3} }
	cases := []struct {
		name  string
		a, b  summary
		bound float64
		want  string
	}{
		{"equal", at(100, 99, 101), at(100, 99, 101), 0.10, "same"},
		{"worse inside the bound", at(100, 99, 101), at(109, 108, 110), 0.10, "same"},
		{"worse beyond the bound", at(100, 99, 101), at(111, 110, 112), 0.10, "worse"},
		{"better beyond the bound", at(100, 99, 101), at(89, 88, 90), 0.10, "better"},
		{"better inside the bound", at(100, 99, 101), at(95, 94, 96), 0.10, "same"},
		{"a's own runs spread wider than the bound", at(100, 90, 105), at(130, 129, 131), 0.10, "unresolved"},
		{"b's own runs spread wider than the bound", at(100, 99, 101), at(130, 110, 131), 0.10, "unresolved"},
		{"a spread equal to the bound still resolves", at(100, 95, 105), at(100, 99, 101), 0.10, "same"},
		{"tight bound", at(58.326, 58.326, 58.326), at(60.2, 60.2, 60.2), 0.03, "worse"},
		{"zero baseline, zero now", at(0, 0, 0), at(0, 0, 0), 0.10, "same"},
		{"zero baseline, something now", at(0, 0, 0), at(1, 1, 1), 0.10, "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// pass builds the samples of a pass of n ops in chunks of four with one
// kernel run each: an op takes 10 ms, every fifth 12 ms, so the program's
// own p90 is 12 in every window. disturb may lengthen op i and the kernel
// run of its chunk.
func pass(n int, disturb func(i int) (opFactor, kernelFactor float64)) (samples []float64, chunkEnds []int, kernel []float64) {
	for i := 0; i < n; i++ {
		op, k := 1.0, 1.0
		if disturb != nil {
			op, k = disturb(i)
		}
		wall := 10.0
		if i%5 == 4 {
			wall = 12
		}
		samples = append(samples, wall*op)
		if i%4 == 0 {
			kernel = append(kernel, kernelRefMS*k)
		}
		if i%4 == 3 || i == n-1 {
			chunkEnds = append(chunkEnds, i+1)
		}
	}
	return samples, chunkEnds, kernel
}

func TestSteadyPercentiles(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	cases := []struct {
		name    string
		n       int
		disturb func(i int) (float64, float64)
		windows int
	}{
		{"quiet machine", 480, nil, 20},
		{"machine at half speed throughout", 480, func(int) (float64, float64) { return 2, 2 }, 20},
		{"machine at a third of its speed for a third of the pass", 480, func(i int) (float64, float64) {
			if i >= 160 && i < 320 {
				return 3, 3
			}
			return 1, 1
		}, 20},
		{"bursts that treble three ops in ten in two windows of five and miss the kernel", 480, func(i int) (float64, float64) {
			if (i/24)%5 < 2 && i%10 < 3 {
				return 3, 1
			}
			return 1, 1
		}, 20},
		{"fewer ops than two windows hold", 23, nil, 1},
	}
	for _, c := range cases {
		samples, ends, kernel := pass(c.n, c.disturb)
		p50, p90, windows := steadyPercentiles(samples, ends, kernel)
		if !near(p50, 10) || !near(p90, 12) || windows != c.windows {
			t.Errorf("%s: p50 %v p90 %v in %d windows, want 10 and 12 in %d", c.name, p50, p90, windows, c.windows)
		}
	}

	// The bursts above do reach the percentiles of all samples together.
	samples, _, _ := pass(480, cases[3].disturb)
	if got := percentile(samples, 90); got < 30 {
		t.Errorf("p90 of all samples under bursts = %v, want at least 30", got)
	}

	// A tail the program makes itself is in every window, and is reported.
	samples, ends, kernel := pass(480, func(i int) (float64, float64) {
		if i%5 == 4 {
			return 2, 1
		}
		return 1, 1
	})
	if _, p90, _ := steadyPercentiles(samples, ends, kernel); !near(p90, 24) {
		t.Errorf("p90 with every fifth op doubled = %v, want 24", p90)
	}

	// A pass of a single op.
	if p50, p90, windows := steadyPercentiles([]float64{7}, []int{1}, []float64{kernelRefMS / 2}); !near(p50, 14) || !near(p90, 14) || windows != 1 {
		t.Errorf("single op at double speed: p50 %v p90 %v in %d windows, want 14, 14 in 1", p50, p90, windows)
	}
}
