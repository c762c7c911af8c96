// Package converge is the static termination and convergence analysis
// for iterative CTEs: an abstract interpretation over the original
// WITH ITERATIVE AST that classifies every loop before the rewrite
// compiles it. The lattice has three points, strongest first:
//
//	Terminates(bound) — the loop provably stops within a known number
//	    of iterations: UNTIL n ITERATIONS / UPDATES metadata
//	    conditions, iteration-invariant or identity bodies under
//	    Delta termination, stationary merges, and inflationary merges
//	    whose key output ranges over a finite base-table domain.
//	Converges — the loop provably reaches a fixpoint (so UNTIL DELTA
//	    fires) but the iteration count is data-dependent: monotone
//	    LEAST/GREATEST-style merges that move each value one
//	    direction through a finite lattice.
//	Unknown(diagnostics) — nothing could be proved; the diagnostics
//	    say what blocked each rule (float SUM fixpoints that can
//	    oscillate below the comparison precision, frontier-expanding
//	    merges with computed key sources, Data conditions no fixpoint
//	    forces, non-monotone feedback through the iterative
//	    reference).
//
// No engine code calls it: every loop carries the iteration cap
// whatever this analysis would prove, so its verdict changed nothing
// but EXPLAIN text. The package stays only because the benchmark's
// converge.analyze_us probe (benchmark/probes.go) times AnalyzeCTE; it
// goes when that probe does.
package converge

import (
	"fmt"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// Kind is a point of the verdict lattice. Higher is stronger.
type Kind int

// Verdict kinds, weakest first so Kind comparisons order the lattice.
const (
	Unknown Kind = iota
	Converges
	Terminates
)

func (k Kind) String() string {
	switch k {
	case Terminates:
		return "Terminates"
	case Converges:
		return "Converges"
	}
	return "Unknown"
}

// Evidence is one link of the proof chain behind a verdict: the rule
// that fired and a human-readable justification citing the source
// expressions it inspected (with byte offsets when the parser recorded
// them).
type Evidence struct {
	Rule   string
	Detail string
}

// Verdict is the analysis result for one iterative CTE.
type Verdict struct {
	CTE  string
	Kind Kind
	// Bound is a numeric upper bound on loop iterations when one is
	// known (Terminates only); 0 means no numeric bound.
	Bound int64
	// BoundRef describes a symbolic bound ("|distinct edges.dst| + 2")
	// when the numeric value was unavailable at plan time.
	BoundRef string
	// Evidence is the proof chain for Terminates/Converges verdicts.
	Evidence []Evidence
	// Diags explains, for Unknown verdicts, what blocked each rule.
	// The injected iteration-cap guard carries them into its error.
	Diags []string
}

// BoundString renders the bound for EXPLAIN.
func (v Verdict) BoundString() string {
	switch {
	case v.Bound > 0 && v.BoundRef != "":
		return fmt.Sprintf("<= %d iterations (%s)", v.Bound, v.BoundRef)
	case v.Bound > 0:
		return fmt.Sprintf("<= %d iterations", v.Bound)
	case v.BoundRef != "":
		return "<= " + v.BoundRef
	}
	return ""
}

// Lookup resolves base-table schemas. plan.TableLookup satisfies it;
// the interface is redeclared here so the analysis depends only on the
// AST layer.
type Lookup interface {
	TableSchema(name string) (sqltypes.Schema, bool)
}

// CardinalityLookup optionally reports base-table row counts, turning
// the |key domain| bound of the inflationary rule into a number. The
// engine's runtime implements it; the analysis type-asserts.
type CardinalityLookup interface {
	TableRowCount(name string) (int, bool)
}

// AnalyzeCTE classifies one iterative CTE. It never fails: anything it
// cannot prove yields Unknown with diagnostics. lookup may be nil
// (every schema-dependent rule then withholds).
func AnalyzeCTE(cte *ast.CTE, lookup Lookup) Verdict {
	v := Verdict{CTE: cte.Name}
	if !cte.Iterative || cte.Iter == nil {
		v.Diags = append(v.Diags, "not an iterative CTE")
		return v
	}
	switch cte.Until.Type {
	case ast.TermMetadata:
		analyzeMetadata(cte, &v)
	case ast.TermData:
		analyzeData(cte, &v)
	case ast.TermDelta:
		analyzeDelta(cte, lookup, &v)
	default:
		v.Diags = append(v.Diags, fmt.Sprintf("unknown termination type %v", cte.Until.Type))
	}
	return v
}

// analyzeMetadata handles UNTIL n ITERATIONS / UNTIL n UPDATES: both
// are bounded by the loop operator itself.
func analyzeMetadata(cte *ast.CTE, v *Verdict) {
	n := cte.Until.N
	if n < 0 {
		n = 0
	}
	v.Kind = Terminates
	v.Bound = maxInt64(n, 1)
	if !cte.Until.CountUpdates {
		v.Evidence = append(v.Evidence, Evidence{
			Rule: "metadata-bound",
			Detail: fmt.Sprintf("UNTIL %d ITERATIONS pins the loop counter: the loop step compares the "+
				"iteration count against the constant every pass", cte.Until.N),
		})
		return
	}
	// UNTIL n UPDATES: the counter accumulates the changed rows of the
	// identification pass. The runtime's fixpoint guard stops the loop
	// when an iteration changes nothing, so every continuing iteration
	// adds at least one update and the counter reaches n within n
	// iterations.
	v.Evidence = append(v.Evidence,
		Evidence{
			Rule: "update-bound",
			Detail: fmt.Sprintf("UNTIL %d UPDATES accumulates the changed-row counts of the merge/copy-back "+
				"identification pass monotonically", cte.Until.N),
		},
		Evidence{
			Rule: "update-fixpoint",
			Detail: "the loop operator stops when an iteration changes zero rows (the body is deterministic " +
				"over the CTE and iteration-invariant base tables, so a zero-change iteration is a fixpoint); " +
				"every continuing iteration therefore adds at least one update",
		})
}

// analyzeData handles UNTIL ANY/ALL (expr): always Unknown. The
// condition is re-evaluated each pass, but nothing forces the CTE to
// ever satisfy it — a body at fixpoint re-derives the same
// unsatisfied condition forever, and the loop operator has no
// zero-change guard for Data conditions (the condition, not the data,
// drives it).
func analyzeData(cte *ast.CTE, v *Verdict) {
	kw := "ALL"
	if cte.Until.Any {
		kw = "ANY"
	}
	v.Diags = append(v.Diags, fmt.Sprintf(
		"Data termination UNTIL %s (%s) is checked each pass but no rule forces the CTE to ever satisfy it; "+
			"a body at fixpoint re-evaluates the same unsatisfied condition forever", kw, cite(cte.Until.Expr)))
	// Body diagnostics sharpen the report even though they cannot
	// change the verdict.
	v.Diags = append(v.Diags, bodyDiagnostics(cte)...)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// Provenance helpers
// ---------------------------------------------------------------------

// cite renders an expression with its source byte offset when the
// parser recorded one (ColumnRef.Pos / FuncCall.Pos provenance).
func cite(e ast.Expr) string {
	if e == nil {
		return "<nil>"
	}
	if p := exprPos(e); p > 0 {
		return fmt.Sprintf("%s @%d", e, p)
	}
	return e.String()
}

// exprPos returns the smallest recorded byte offset inside e, 0 when
// none (hand-built AST).
func exprPos(e ast.Expr) int {
	pos := 0
	ast.WalkExpr(e, func(x ast.Expr) bool {
		var p int
		switch t := x.(type) {
		case *ast.ColumnRef:
			p = t.Pos
		case *ast.FuncCall:
			p = t.Pos
		}
		if p > 0 && (pos == 0 || p < pos) {
			pos = p
		}
		return true
	})
	return pos
}

// cteColumns derives the declared column names of the CTE: the
// explicit column list, or the non-iterative part's output names.
// Names that cannot be derived are "".
func cteColumns(cte *ast.CTE) []string {
	if len(cte.Cols) > 0 {
		return cte.Cols
	}
	if cte.Init == nil {
		return nil
	}
	core, ok := cte.Init.Body.(*ast.SelectCore)
	if !ok {
		return nil
	}
	cols := make([]string, len(core.Items))
	for i, it := range core.Items {
		switch {
		case it.Alias != "":
			cols[i] = it.Alias
		default:
			if ref, isRef := it.Expr.(*ast.ColumnRef); isRef {
				cols[i] = ref.Name
			}
		}
	}
	return cols
}
