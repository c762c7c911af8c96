package verify

// Seeded-mutant tests for the effect-set re-derivation: each test
// rewrites a real query (so Effects is the record the checkpoint specs
// are built from), tampers with one set the way a buggy optimizer pass
// or a stale plan cache would, and checks the verifier fails closed
// with the right class.

import (
	"strings"
	"testing"
)

func TestRewrittenProgramRecordsEffects(t *testing.T) {
	prog, _ := rewriteQuery(t, unknownQuery)
	if len(prog.Effects) != len(prog.Steps) {
		t.Fatalf("rewrite recorded %d effect sets for %d steps", len(prog.Effects), len(prog.Steps))
	}
	if diags := Check(prog, parseStmt(t, unknownQuery)); len(diags) != 0 {
		t.Fatalf("honest program rejected: %v", diags)
	}
}

func TestUnderDeclaredReadFailsClosed(t *testing.T) {
	prog, _ := rewriteQuery(t, unknownQuery)
	// A "leaner" effect record drops a step's reads: the record would no
	// longer say what the step depends on.
	tampered := -1
	for i := range prog.Effects {
		if len(prog.Effects[i].Reads) > 0 {
			prog.Effects[i].Reads = nil
			tampered = i
			break
		}
	}
	if tampered < 0 {
		t.Fatal("no step with recorded reads to tamper with")
	}
	diags := classDiags(Check(prog, parseStmt(t, unknownQuery)), ClassEffectViolation)
	if len(diags) == 0 {
		t.Fatal("under-declared read set not rejected")
	}
	if diags[0].Step != tampered+1 || !strings.Contains(diags[0].Message, "omits read") {
		t.Errorf("diagnostic should cite the tampered step's missing read: %v", diags[0])
	}
}

// TestUnderDeclaredLoopWriteFailsClosed: a step whose record drops the
// loop state it advances would leave that state out of the back-edge
// checkpoint built from the records.
func TestUnderDeclaredLoopWriteFailsClosed(t *testing.T) {
	prog, _ := rewriteQuery(t, unknownQuery)
	tampered := -1
	for i := range prog.Effects {
		if len(prog.Effects[i].LoopWrites) > 0 {
			prog.Effects[i].LoopWrites = nil
			tampered = i
			break
		}
	}
	if tampered < 0 {
		t.Fatal("no step with recorded loop writes to tamper with")
	}
	diags := classDiags(Check(prog, parseStmt(t, unknownQuery)), ClassEffectViolation)
	if len(diags) == 0 {
		t.Fatal("under-declared loop write not rejected")
	}
	if diags[0].Step != tampered+1 || !strings.Contains(diags[0].Message, "omits loop-write") {
		t.Errorf("diagnostic should cite the tampered step's missing loop write: %v", diags[0])
	}
}

func TestHandBuiltProgramWithoutRecordsIsSkipped(t *testing.T) {
	prog, _ := validProgram()
	if prog.Effects != nil {
		t.Fatal("hand-built program should record no effects")
	}
	if diags := checkEffects(prog); len(diags) != 0 {
		t.Fatalf("hand-built program must be skipped: %v", diags)
	}
}
