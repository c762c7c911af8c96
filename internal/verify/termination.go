package verify

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/converge"
	"dbspinner/internal/core"
)

// Termination cross-check: the rewrite runs the converge analysis and
// acts on its verdict (recording it for EXPLAIN, installing the
// iteration-cap guard on Unknown loops, feeding proved bounds to
// costing). A bug in that plumbing — a fabricated Terminates verdict, a
// dropped guard — silently removes the only protection against a
// non-terminating loop. This file re-derives every verdict from the
// original statement with the same analysis entry point and fails
// closed when the program claims more than the re-derivation proves.

// checkTermination re-derives the converge verdict for every iterative
// CTE of the original statement and compares it against what the
// program recorded and installed. stmt may be nil (program-only
// checks); the termination cross-check then has nothing to re-derive
// and is skipped. A missing recorded verdict is not a diagnostic — the
// program simply claims nothing — but a recorded verdict stronger than
// the re-derived one, or a derived-Unknown loop running without a cap,
// is.
func checkTermination(prog *core.Program, stmt *ast.SelectStmt) []Diagnostic {
	if stmt == nil || stmt.With == nil {
		return nil
	}
	recorded := map[string]*converge.Verdict{}
	for i := range prog.Verdicts {
		recorded[strings.ToLower(prog.Verdicts[i].CTE)] = &prog.Verdicts[i]
	}
	loops := map[string]*core.LoopState{}
	for _, s := range prog.Steps {
		if l, ok := s.(*core.LoopStep); ok && l.Loop != nil {
			loops[strings.ToLower(l.Loop.CTEName)] = l.Loop
		}
	}

	var diags []Diagnostic
	for _, cte := range stmt.With.CTEs {
		if !cte.Iterative {
			// A recursive CTE has no termination proof: its loop, if the
			// rewrite made one, must carry the cap.
			if l := loops[strings.ToLower(cte.Name)]; stmt.With.Recursive && l != nil && l.Cap <= 0 {
				diags = append(diags, Diagnostic{Class: ClassMissingGuard,
					Message: fmt.Sprintf("recursive CTE %s has no termination proof, but its loop carries no iteration-cap guard", cte.Name)})
			}
			continue
		}
		derived := converge.AnalyzeCTE(cte, prog.Lookup)
		if rec := recorded[strings.ToLower(cte.Name)]; rec != nil {
			if rec.Kind > derived.Kind {
				diags = append(diags, Diagnostic{Class: ClassUnsoundTermination,
					Message: fmt.Sprintf("program records termination verdict %s for CTE %s, but independent re-derivation only proves %s%s",
						rec.Kind, cte.Name, derived.Kind, diagSuffix(derived))})
			} else if rec.Kind == converge.Terminates && derived.Kind == converge.Terminates &&
				rec.Bound > 0 && (derived.Bound <= 0 || rec.Bound < derived.Bound) {
				diags = append(diags, Diagnostic{Class: ClassUnsoundTermination,
					Message: fmt.Sprintf("program records iteration bound %d for CTE %s, tighter than the re-derived bound%s",
						rec.Bound, cte.Name, boundSuffix(derived))})
			}
		}
		if derived.Kind == converge.Unknown {
			if l := loops[strings.ToLower(cte.Name)]; l != nil && l.Cap <= 0 {
				diags = append(diags, Diagnostic{Class: ClassMissingGuard,
					Message: fmt.Sprintf("termination of CTE %s is Unknown%s, but its loop carries no iteration-cap guard",
						cte.Name, diagSuffix(derived))})
			}
		}
	}
	return diags
}

// diagSuffix renders an Unknown verdict's diagnostics as a
// parenthesized clause, empty when there are none.
func diagSuffix(v converge.Verdict) string {
	if len(v.Diags) == 0 {
		return ""
	}
	return " (" + strings.Join(v.Diags, "; ") + ")"
}

func boundSuffix(v converge.Verdict) string {
	if v.Bound > 0 {
		return fmt.Sprintf(" %d", v.Bound)
	}
	return " (no numeric bound is provable)"
}
