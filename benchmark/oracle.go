package main

import (
	"fmt"
	"math"
	"sort"

	"dbspinner"
	"dbspinner/internal/graphalgo"
	"dbspinner/internal/sqltypes"
)

// A check compares one query's rows with values computed in Go from the
// generated graph.
type check func(rows []dbspinner.Row) error

func closeTo(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*(1+math.Abs(want))
}

// checkNodeValues expects exactly one (node, value) row per entry of
// want. A NaN in want stands for SQL NULL, as in graphalgo.PageRank.
func checkNodeValues(what string, want map[int64]float64, tol float64) check {
	return func(rows []dbspinner.Row) error {
		if len(rows) != len(want) {
			return fmt.Errorf("%s: %d rows, oracle has %d", what, len(rows), len(want))
		}
		for _, r := range rows {
			node := r[0].Int()
			w, ok := want[node]
			switch {
			case !ok:
				return fmt.Errorf("%s: node %d is not in the oracle", what, node)
			case math.IsNaN(w):
				if !r[1].IsNull() {
					return fmt.Errorf("%s: node %d is %v, oracle has NULL", what, node, r[1])
				}
			case r[1].IsNull() || !closeTo(r[1].Float(), w, tol):
				return fmt.Errorf("%s: node %d is %v, oracle has %v", what, node, r[1], w)
			}
		}
		return nil
	}
}

func checkPR(g *graph, iterations int) check {
	return checkNodeValues("PR", graphalgo.PageRank(g.edges, iterations), 1e-9)
}

func checkPRVS(g *graph, iterations int) check {
	return checkNodeValues("PR-VS", graphalgo.PageRankVS(g.edges, g.status, iterations), 1e-9)
}

// checkSSSP compares with graphalgo.SSSP over edges. A node the oracle
// never saw (none of its edges survived the availability filter) keeps
// the sentinel distance.
func checkSSSP(what string, g *graph, edges []graphalgo.Edge, source int64, iterations int) check {
	want := graphalgo.SSSP(edges, source, iterations)
	for node := 1; node <= g.nodes; node++ {
		if _, ok := want[int64(node)]; !ok {
			want[int64(node)] = graphalgo.Infinity
		}
	}
	return checkNodeValues(what, want, 1e-9)
}

// checkFF expects the limit highest forecasts among the nodes divisible
// by mod, in descending order. Ties may be broken either way, so rows
// are checked by value: each row matches its node's forecast, the
// order is descending, and no node left out beats the last row.
func checkFF(g *graph, iterations, mod, limit int) check {
	forecast := graphalgo.Forecast(g.edges, iterations)
	var eligible []float64
	for node, f := range forecast {
		if node%int64(mod) == 0 {
			eligible = append(eligible, f)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(eligible)))
	if len(eligible) > limit {
		eligible = eligible[:limit]
	}
	return func(rows []dbspinner.Row) error {
		if len(rows) != len(eligible) {
			return fmt.Errorf("FF: %d rows, oracle has %d", len(rows), len(eligible))
		}
		for i, r := range rows {
			node, got := r[0].Int(), r[1].Float()
			if node%int64(mod) != 0 {
				return fmt.Errorf("FF: node %d fails MOD(node, %d) = 0", node, mod)
			}
			if f, ok := forecast[node]; !ok || !closeTo(got, f, 1e-6) {
				return fmt.Errorf("FF: node %d is %v, oracle has %v", node, got, f)
			}
			if !closeTo(got, eligible[i], 1e-6) {
				return fmt.Errorf("FF: row %d is %v, the oracle's rank %d is %v", i, got, i, eligible[i])
			}
		}
		return nil
	}
}

// checkInDegree mirrors sqlInDegree: per available destination, the
// number and the weight sum of its incoming edges, ordered by node.
func checkInDegree(g *graph) check {
	count := map[int64]int64{}
	weight := map[int64]float64{}
	for _, e := range g.availableEdges() {
		count[e.Dst]++
		weight[e.Dst] += e.Weight
	}
	return func(rows []dbspinner.Row) error {
		if len(rows) != len(count) {
			return fmt.Errorf("in-degree: %d rows, oracle has %d", len(rows), len(count))
		}
		prev := int64(0)
		for _, r := range rows {
			node := r[0].Int()
			if node <= prev {
				return fmt.Errorf("in-degree: node %d after %d breaks ORDER BY", node, prev)
			}
			prev = node
			if r[1].Int() != count[node] || !closeTo(r[2].Float(), weight[node], 1e-9) {
				return fmt.Errorf("in-degree: node %d is (%v, %v), oracle has (%d, %v)", node, r[1], r[2], count[node], weight[node])
			}
		}
		return nil
	}
}

// checkReach mirrors sqlReach: the start node and everything a path of
// edges leads to from it, ordered by node.
func checkReach(g *graph, start int64) check {
	out := map[int64][]int64{}
	for _, e := range g.edges {
		out[e.Src] = append(out[e.Src], e.Dst)
	}
	seen := map[int64]bool{start: true}
	for queue := []int64{start}; len(queue) > 0; queue = queue[1:] {
		for _, next := range out[queue[0]] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	want := make([]int64, 0, len(seen))
	for node := range seen {
		want = append(want, node)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return func(rows []dbspinner.Row) error {
		if len(rows) != len(want) {
			return fmt.Errorf("reach: %d rows, oracle has %d", len(rows), len(want))
		}
		for i, r := range rows {
			if r[0].Int() != want[i] {
				return fmt.Errorf("reach: row %d is node %d, oracle has %d", i, r[0].Int(), want[i])
			}
		}
		return nil
	}
}

// digest is the order-independent fingerprint of an op's results that
// every timed op is compared with: row count and the sum of per-row
// hashes. It allocates nothing, so it can run between timed ops without
// showing in the allocation metrics.
type digest struct {
	rows int
	sum  uint64
}

func (d *digest) add(rows []dbspinner.Row) {
	d.rows += len(rows)
	for _, r := range rows {
		h := uint64(14695981039346656037)
		for _, v := range r {
			h = mix(h, uint64(v.T))
			switch v.T {
			case sqltypes.Null, sqltypes.Unknown:
			case sqltypes.Float:
				h = mix(h, math.Float64bits(v.F))
			case sqltypes.String:
				for i := 0; i < len(v.S); i++ {
					h = mix(h, uint64(v.S[i]))
				}
			default:
				h = mix(h, uint64(v.I))
			}
		}
		d.sum += h
	}
}

func mix(h, u uint64) uint64 {
	h ^= u
	h *= 1099511628211
	return h ^ h>>29
}
