package main

import (
	"fmt"
	"math/rand"

	"dbspinner"
)

// stmtKind says which engine entry point a statement goes through and
// which per-layer metric its time is reported under.
type stmtKind int

const (
	kindQuery stmtKind = iota // Engine.Query
	kindInsert
	kindUpdate
	kindDelete
	kindDDL
)

// stmt is one SQL text of an op. check is set on queries whose answer
// the benchmark can compute itself.
type stmt struct {
	sql   string
	kind  stmtKind
	check check
}

// workload is one named input of the benchmark. An op is one
// user-visible request: every statement of statements(round), in order.
type workload struct {
	name string
	why  string
	// nodes sizes the generated graph; cfg is the engine configuration.
	nodes int
	cfg   dbspinner.Config
	// warmup is the number of untimed ops run before the first timed
	// one; their time is part of setup_s.
	warmup int
	// variants is the number of distinct answers the op cycles through:
	// round r has the answer of round r % variants.
	variants int
	// statements builds the texts of one op. withChecks also computes
	// the oracles, which is slow and only done for the verified ops.
	statements func(in *input, round int, withChecks bool) []stmt
	// probe is the iterative query whose CTE the layer probes (plan,
	// converge, aggprop, exec, mpp) take apart.
	probe func(in *input) string
}

// input is everything generated from the seed: the graph and the
// literals the adhoc texts vary.
type input struct {
	g *graph
	// sources are the ids of the oldest nodes, one per variant: the SSSP
	// sources and reachability starts. They are hubs, so the frontier
	// grows over every iteration.
	sources   []int64
	moduli    []int // FF moduli of the adhoc workload, one per variant
	limitBase int   // adhoc LIMITs count up from here, above any row count
}

const adhocVariants = 4

func newInput(nodes int, seed int64) *input {
	in := &input{g: generate(nodes, seed)}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	in.limitBase = 100000 + rng.Intn(100000)
	for v := 0; v < adhocVariants; v++ {
		in.sources = append(in.sources, in.g.ids[v+1])
		in.moduli = append(in.moduli, v+2)
	}
	return in
}

// one wraps an op of a single query whose text is the workload's probe.
func one(text func(in *input) string, mk func(in *input) check) func(*input, int, bool) []stmt {
	return func(in *input, _ int, withChecks bool) []stmt {
		if withChecks {
			return []stmt{{sql: text(in), check: mk(in)}}
		}
		return []stmt{{sql: text(in)}}
	}
}

func textPR(*input) string        { return fmt.Sprintf(sqlPR, prIterations) }
func textPRVS(*input) string      { return fmt.Sprintf(sqlPRVS, prIterations) }
func textFF(*input) string        { return fmt.Sprintf(sqlFF, ffIterations, ffModulus, ffLimit) }
func textSSSPVS(in *input) string { return fmt.Sprintf(sqlSSSPVS, in.sources[0], ssspIterations) }

const (
	prIterations   = 10
	ssspIterations = 10
	ffIterations   = 25
	ffModulus      = 2
	ffLimit        = 10
	adhocIters     = 3
)

var workloads = []*workload{
	{
		name: "pr", nodes: 900, warmup: 5, variants: 1,
		why:        "PageRank: two joins and an aggregate on the rename path, so exec join/agg and key building dominate; bypasses merge, MPP and DML",
		cfg:        dbspinner.Config{Partitions: 4},
		statements: one(textPR, func(in *input) check { return checkPR(in.g, prIterations) }),
		probe:      textPR,
	},
	{
		name: "sssp-vs", nodes: 1100, warmup: 5, variants: 1,
		why: "SSSP with a vertexStatus join: partial update, so the merge step, common-result block and incremental aggregates run, which pr never touches",
		cfg: dbspinner.Config{Partitions: 4},
		statements: one(textSSSPVS, func(in *input) check {
			return checkSSSP("SSSP-VS", in.g, in.g.availableEdges(), in.sources[0], ssspIterations)
		}),
		probe: textSSSPVS,
	},
	{
		name: "ff", nodes: 4000, warmup: 15, variants: 1,
		why: "Friends forecast: no join or aggregate in the loop body, so the cost is the step driver, rename, expr evaluation and pushdown",
		cfg: dbspinner.Config{Partitions: 4},
		statements: one(textFF, func(in *input) check {
			return checkFF(in.g, ffIterations, ffModulus, ffLimit)
		}),
		probe: textFF,
	},
	{
		name: "pr-vs-mpp", nodes: 1300, warmup: 5, variants: 1,
		why:        "PR-VS on the MPP machine with 2 partitions: the only workload where exchanges, shuffle elision and fragment fan-out run",
		cfg:        dbspinner.Config{Partitions: 2, Parallel: true},
		statements: one(textPRVS, func(in *input) check { return checkPRVS(in.g, prIterations) }),
		probe:      textPRVS,
	},
	{
		name: "adhoc", nodes: 64, warmup: 75, variants: adhocVariants,
		why:        "Seven small statements with a fresh literal each round on a 64-node graph: lexer, parser, plan, rewrite, analyses and verify are a large share of each",
		cfg:        dbspinner.Config{Partitions: 4},
		statements: adhocStatements,
		probe:      func(*input) string { return fmt.Sprintf(sqlPR, adhocIters) },
	},
	{
		name: "proc-dml", nodes: 900, warmup: 5, variants: 1,
		why:        "SSSP-VS as the Figure 11 stored procedure, 35 statements per op: many short writes with locks and WAL instead of one read plan",
		cfg:        dbspinner.Config{Partitions: 4},
		statements: procStatements,
		probe:      textSSSPVS,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// adhocStatements is one round of the adhoc workload. The LIMIT is new
// every round, so no two rounds share a text and a cache keyed on the
// text cannot answer; it is above every row count, so it never changes
// an answer. The SSSP source, reachability start and FF modulus cycle
// through adhocVariants values, which do change the answers.
func adhocStatements(in *input, round int, withChecks bool) []stmt {
	v := round % adhocVariants
	src, mod, limit := in.sources[v], in.moduli[v], in.limitBase+round
	suffix := fmt.Sprintf(limitSuffix, limit)
	out := []stmt{
		{sql: fmt.Sprintf(sqlPR, adhocIters) + suffix},
		{sql: fmt.Sprintf(sqlPRVS, adhocIters) + suffix},
		{sql: fmt.Sprintf(sqlSSSP, src, adhocIters) + suffix},
		{sql: fmt.Sprintf(sqlSSSPVS, src, adhocIters) + suffix},
		{sql: fmt.Sprintf(sqlFF, adhocIters, mod, limit)},
		{sql: fmt.Sprintf(sqlInDegree, limit)},
		{sql: fmt.Sprintf(sqlReach, src, limit)},
	}
	if withChecks {
		g := in.g
		out[0].check = checkPR(g, adhocIters)
		out[1].check = checkPRVS(g, adhocIters)
		out[2].check = checkSSSP("SSSP", g, g.edges, src, adhocIters)
		out[3].check = checkSSSP("SSSP-VS", g, g.availableEdges(), src, adhocIters)
		out[4].check = checkFF(g, adhocIters, mod, limit)
		out[5].check = checkInDegree(g)
		out[6].check = checkReach(g, src)
	}
	return out
}

// procStatements is one call of the stored procedure; its texts never
// change.
func procStatements(in *input, _ int, withChecks bool) []stmt {
	var op []stmt
	for _, s := range procSetup {
		op = append(op, stmt{sql: s, kind: kindDDL})
	}
	op = append(op, stmt{sql: fmt.Sprintf(procInit, in.sources[0]), kind: kindInsert})
	for i := 0; i < ssspIterations; i++ {
		op = append(op,
			stmt{sql: procBody[0], kind: kindDelete},
			stmt{sql: procBody[1], kind: kindInsert},
			stmt{sql: procBody[2], kind: kindUpdate})
	}
	final := stmt{sql: procFinal}
	if withChecks {
		final.check = checkSSSP("proc SSSP-VS", in.g, in.g.availableEdges(), in.sources[0], ssspIterations)
	}
	op = append(op, final)
	for _, s := range procTeardown {
		op = append(op, stmt{sql: s, kind: kindDDL})
	}
	return op
}
