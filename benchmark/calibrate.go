package main

import (
	"math/rand"
	"time"
)

// The calibration kernel is a fixed piece of Go work the benchmark runs
// beside the ops it times: a few rounds of rank propagation over a
// fixed graph, through maps and freshly allocated slices, the way the
// engine's joins and aggregates use memory. It never changes with the
// engine, so how long it takes says how fast the machine is running
// right now, and a shared sandbox's speed moves by tens of percent from
// one minute to the next.
//
// Every end-to-end time is reported at the reference speed: the
// measured wall multiplied by kernelRefMS and divided by the wall of the
// kernel runs nearest to it (steadyPercentiles takes the median of each
// window's, setup_s the fastest quarter of those around the set-ups). A
// time measured while the machine ran 20% slow and one measured at full
// speed then agree, which is what lets a bound mean something. The raw
// walls and the speed factor are reported per layer
// (engine.op_wall_ms_p50, machine.speed).

// kernelRefMS is the kernel's wall on the sandbox this benchmark was
// first run on, in a quiet minute. It only fixes the scale: at this
// speed a reported millisecond is a measured millisecond.
const kernelRefMS = 4.7

const (
	kernelNodes  = 1000
	kernelRounds = 12
)

type kernelEdge struct {
	src, dst int64
	weight   float64
}

type calibrator struct {
	edges []kernelEdge
	walls []float64 // ms, one per run of the kernel
	sink  float64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{edges: make([]kernelEdge, 3*kernelNodes)}
	for i := range c.edges {
		c.edges[i] = kernelEdge{int64(rng.Intn(kernelNodes)), int64(rng.Intn(kernelNodes)), rng.Float64()}
	}
	return c
}

// run executes the kernel once and records its wall.
func (c *calibrator) run() {
	t0 := time.Now()
	rank := make(map[int64]float64, kernelNodes)
	for _, e := range c.edges {
		rank[e.src], rank[e.dst] = 1, 1
	}
	for round := 0; round < kernelRounds; round++ {
		incoming := map[int64][]float64{}
		for _, e := range c.edges {
			incoming[e.dst] = append(incoming[e.dst], rank[e.src]*e.weight)
		}
		next := make(map[int64]float64, len(rank))
		for node, parts := range incoming {
			sum := 0.0
			for _, p := range parts {
				sum += p
			}
			next[node] = 0.15 + 0.85*sum/float64(len(parts))
		}
		rank = next
	}
	c.sink += rank[0]
	c.walls = append(c.walls, float64(time.Since(t0).Nanoseconds())/1e6)
}

func (c *calibrator) runs(n int) {
	for i := 0; i < n; i++ {
		c.run()
	}
}

// speed is how fast the machine ran during the kernel runs since mark,
// as a multiple of the reference speed: above 1 is faster.
func (c *calibrator) speed(mark int) float64 {
	return kernelRefMS / median(c.walls[mark:])
}
