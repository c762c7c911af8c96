package main

import (
	"hash/fnv"
	"math"
	"math/rand"

	"dbspinner"
	"dbspinner/internal/graphalgo"
)

// graph is one generated input: the edges(src, dst, weight) rows and
// the vertexStatus(node, status) rows every workload loads.
type graph struct {
	nodes  int
	edges  []graphalgo.Edge
	status map[int64]int64 // node -> 0 (unavailable) or 1
	// ids[i] is the id of the i-th oldest node (1-based). The oldest
	// nodes have the highest degree, so ids[1..k] are well-connected
	// SSSP sources whatever the seed.
	ids []int64
}

// outDegree is the number of links every new node attaches with, the
// edge:node ratio of the paper's DBLP graph (~3.3).
const outDegree = 3

// availableShare is the fraction of nodes vertexStatus marks available.
const availableShare = 0.8

// generate builds a preferential-attachment graph over n nodes. Node i
// links to min(outDegree, i-1) distinct earlier nodes, each drawn from
// the endpoints seen so far, so in+out degree is heavy-tailed like a
// collaboration graph. Each link is then oriented by a coin flip: DBLP
// is undirected, and a graph whose edges all point from new to old
// leaves SSSP from any source with almost nothing to reach. Weights are
// 1/outdegree(src), the normalisation PageRank expects; SSSP uses the
// same weights as distances.
//
// The shape (who links to whom, who is available) depends on n alone.
// The seed picks the node ids, a permutation of 1..n, and the order of
// the edge rows. Two seeds therefore give different tables that cost
// the same to query: how early SSSP reaches the hubs, or whether a hub
// is available, moves an op by 20% between freely drawn graphs, which
// would drown the 10% regressions the benchmark exists to resolve.
func generate(n int, seed int64) *graph {
	shape := rand.New(rand.NewSource(int64(n)))
	endpoints := make([]int64, 0, 2*n*outDegree)
	endpoints = append(endpoints, 1)
	edges := make([]graphalgo.Edge, 0, n*outDegree)
	var picked [outDegree]int64
	for i := 2; i <= n; i++ {
		want := outDegree
		if i-1 < want {
			want = i - 1
		}
		got := 0
		for got < want {
			t := endpoints[shape.Intn(len(endpoints))]
			if shape.Intn(4) == 0 {
				// A share of uniform picks keeps the retry loop short on
				// the dense prefix and the low-degree tail populated.
				t = int64(shape.Intn(i-1) + 1)
			}
			dup := false
			for _, p := range picked[:got] {
				dup = dup || p == t
			}
			if dup {
				continue
			}
			picked[got] = t
			got++
		}
		for _, t := range picked[:got] {
			e := graphalgo.Edge{Src: int64(i), Dst: t}
			if shape.Intn(2) == 0 {
				e.Src, e.Dst = e.Dst, e.Src
			}
			edges = append(edges, e)
			endpoints = append(endpoints, e.Src, e.Dst)
		}
	}
	outDeg := make(map[int64]int, n)
	for _, e := range edges {
		outDeg[e.Src]++
	}
	for i := range edges {
		edges[i].Weight = 1 / float64(outDeg[edges[i].Src])
	}

	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, n+1) // ids[i] is the id of the i-th oldest node
	for i, p := range rng.Perm(n) {
		ids[i+1] = int64(p + 1)
	}
	for i := range edges {
		edges[i].Src, edges[i].Dst = ids[edges[i].Src], ids[edges[i].Dst]
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	status := make(map[int64]int64, n)
	for i := 1; i <= n; i++ {
		if shape.Float64() < availableShare {
			status[ids[i]] = 1
		} else {
			status[ids[i]] = 0
		}
	}
	return &graph{nodes: n, edges: edges, status: status, ids: ids}
}

// checksum identifies a generated graph: FNV-1a over every edge and
// status row in generation order.
func (g *graph) checksum() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, e := range g.edges {
		put(uint64(e.Src))
		put(uint64(e.Dst))
		put(math.Float64bits(e.Weight))
	}
	for node := 1; node <= g.nodes; node++ {
		put(uint64(g.status[int64(node)]))
	}
	return h.Sum64()
}

func (g *graph) edgeRows() []dbspinner.Row {
	rows := make([]dbspinner.Row, len(g.edges))
	for i, e := range g.edges {
		rows[i] = dbspinner.Row{dbspinner.NewInt(e.Src), dbspinner.NewInt(e.Dst), dbspinner.NewFloat(e.Weight)}
	}
	return rows
}

func (g *graph) statusRows() []dbspinner.Row {
	rows := make([]dbspinner.Row, 0, g.nodes)
	for node := 1; node <= g.nodes; node++ {
		rows = append(rows, dbspinner.Row{dbspinner.NewInt(int64(node)), dbspinner.NewInt(g.status[int64(node)])})
	}
	return rows
}

// availableEdges keeps the edges whose destination is available: the
// input the *-VS queries' vertexStatus join leaves to the recurrence.
func (g *graph) availableEdges() []graphalgo.Edge {
	out := make([]graphalgo.Edge, 0, len(g.edges))
	for _, e := range g.edges {
		if g.status[e.Dst] != 0 {
			out = append(out, e)
		}
	}
	return out
}
