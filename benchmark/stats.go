package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of the samples
// by the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. It sorts a copy. An empty input gives 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

const (
	// windowOps is the fewest ops a window holds: enough that its 90th
	// percentile is not its slowest op.
	windowOps = 12
	// maxWindows bounds the windows of a pass. More windows make it likelier
	// that some are undisturbed, fewer make each one's percentiles truer.
	maxWindows = 20
)

// steadyPercentiles gives the median and the 90th percentile of a pass's
// op walls at the reference speed, in a way that interference from outside
// the process moves little. A shared machine disturbs a pass in bursts: the
// percentiles of all samples then say how many bursts the pass met, and
// that differs from one pass to the next by more than any bound.
//
// The pass is cut into up to maxWindows windows of consecutive chunks with
// about equally many ops. A chunk is the ops run after one run of the
// calibration kernel: chunkEnds[i] is the number of samples when chunk i
// ended and kernel[i] the wall of the kernel run before it. Each window
// gives its median op wall at its own speed, and its tail ratio p90 ÷ p50,
// which needs no speed. p50 is the median of the windows' medians, so that
// the disturbed windows, fewer than half, do not count. Interference only
// ever lengthens a tail, so p90 is p50 times the 10th percentile of the
// tail ratios: the tail of the windows the machine left alone, which is
// the tail the program itself makes.
func steadyPercentiles(samples []float64, chunkEnds []int, kernel []float64) (p50, p90 float64, windows int) {
	k := min(max(len(samples)/windowOps, 1), maxWindows)
	var medians, tails []float64
	from, fromChunk := 0, 0
	for i, end := range chunkEnds {
		if end < (len(medians)+1)*len(samples)/k {
			continue // the window has not had its share of the ops yet
		}
		m := percentile(samples[from:end], 50)
		medians = append(medians, m*kernelRefMS/median(kernel[fromChunk:i+1]))
		tails = append(tails, percentile(samples[from:end], 90)/m)
		from, fromChunk = end, i+1
	}
	p50 = median(medians)
	return p50, p50 * percentile(tails, 10), len(medians)
}

// summary is one metric over repeated runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
	Unit   string  `json:"unit"`
}

// summarize gives the median and the quartiles of repeated runs. The
// quartiles follow Python's statistics.quantiles(values, n=4), the rule
// the acceptance driver applies to this benchmark's output, so a spread
// computed here is the spread the driver sees. One run has no spread.
func summarize(values []float64, unit string) summary {
	s := summary{Median: median(values), Runs: len(values), Unit: unit}
	s.Q1, s.Q3 = s.Median, s.Median
	if len(values) < 2 {
		return s
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	quart := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	s.Q1, s.Q3 = quart(1), quart(3)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// verdict compares side b with side a for a lower-is-better metric whose
// median may worsen by the share bound before it counts as a regression.
// A side whose own runs spread wider than the bound cannot resolve a
// difference of that size, so the pair is unresolved, not same.
func verdict(a, b summary, bound float64) string {
	if a.spread() > bound || b.spread() > bound {
		return "unresolved"
	}
	if a.Median == 0 {
		if b.Median > 0 {
			return "worse"
		}
		return "same"
	}
	change := (b.Median - a.Median) / a.Median
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}
