package main

import (
	"math"
	"testing"
)

func TestGenerateIsSeeded(t *testing.T) {
	a, b, c := generate(500, 7), generate(500, 7), generate(500, 8)
	if a.checksum() != b.checksum() {
		t.Error("the same seed gave two different graphs")
	}
	if a.checksum() == c.checksum() {
		t.Error("two seeds gave the same graph")
	}
	if newInput(500, 7).limitBase == newInput(500, 8).limitBase {
		t.Error("two seeds gave the same adhoc literals")
	}
}

func TestGenerateShape(t *testing.T) {
	const n = 1000
	g := generate(n, 3)
	if want := outDegree*(n-1) - 3; len(g.edges) != want { // nodes 2 and 3 can link to 1 and 2 earlier nodes only
		t.Errorf("%d edges, want %d whatever the seed", len(g.edges), want)
	}
	seen := map[int64]bool{}
	for _, id := range g.ids[1:] {
		if id < 1 || id > n || seen[id] {
			t.Fatalf("ids are not a permutation of 1..%d: %d", n, id)
		}
		seen[id] = true
	}
	out := map[int64]float64{}
	degree := map[int64]int{}
	for _, e := range g.edges {
		if e.Src == e.Dst {
			t.Fatalf("self loop at %d", e.Src)
		}
		out[e.Src] += e.Weight
		degree[e.Src]++
		degree[e.Dst]++
	}
	for src, sum := range out {
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("outgoing weights of %d sum to %v, want 1", src, sum)
		}
	}
	if hub, avg := degree[g.ids[1]], 2*len(g.edges)/n; hub < 5*avg {
		t.Errorf("the oldest node has degree %d, not heavy-tailed against the average %d", hub, avg)
	}
	available := 0
	for _, s := range g.status {
		available += int(s)
	}
	if available < 7*n/10 || available > 9*n/10 {
		t.Errorf("%d of %d nodes available, want about %v", available, n, availableShare)
	}
	// The shape is the seed's to relabel, not to change: the degree of
	// the i-th oldest node is the same under every seed.
	h := generate(n, 4)
	hdeg := map[int64]int{}
	for _, e := range h.edges {
		hdeg[e.Src]++
		hdeg[e.Dst]++
	}
	for i := 1; i <= n; i++ {
		if degree[g.ids[i]] != hdeg[h.ids[i]] || g.status[g.ids[i]] != h.status[h.ids[i]] {
			t.Fatalf("the %d-th oldest node differs between seeds", i)
		}
	}
}
