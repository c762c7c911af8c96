package expr

import (
	"fmt"
	"slices"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// batchArm is the batch arm of the differential tests: it evaluates c
// over rows inside batches of b and compares every row with the row path
// — c.Eval, and for a condition c.Holds — on tag, payload, float bits and
// error. The rows the row path fails on are each evaluated in a batch of
// their own, where the batch must raise the same error; the others go
// into one batch, evaluated twice through the same Batch, in order and
// reversed, so that a vector that keeps a mark from the batch before
// shows. It returns the first mismatch described ("" for none) and how
// many rows of the in-order batch the typed program did not bail on.
func batchArm(b *Batch, c *Compiled, rows []sqltypes.Row) (mismatch string, typed int) {
	var ok []rowPath
	for _, r := range rows {
		p := rowPath{row: r}
		p.v, p.err = c.Eval(r)
		if c.Type == sqltypes.Bool {
			p.holds, p.holdsErr = c.Holds(r)
		}
		if p.err == nil && p.holdsErr == nil {
			ok = append(ok, p)
		} else if m := batchOnce(b, c, []rowPath{p}); m != "" {
			return m, typed
		}
	}
	if len(ok) == 0 {
		return "", typed
	}
	if m := batchOnce(b, c, ok); m != "" {
		return m, typed
	}
	if c.prog != nil {
		for i := range ok {
			if b.bail[i>>6]&(1<<(i&63)) == 0 {
				typed++
			}
		}
	}
	slices.Reverse(ok)
	return batchOnce(b, c, ok), typed
}

// rowPath is a row and what the row path makes of it: Eval's value or
// error and, for a condition, Holds' answer or error.
type rowPath struct {
	row      sqltypes.Row
	v        sqltypes.Value
	err      error
	holds    bool
	holdsErr error
}

// batchOnce compares one batch of c over the rows of want with the row
// path: EvalBatch must write each row's value, EvalColumns over the rows'
// cells compute it where it does not bail, and SelectBatch, for a
// condition, keep the rows it holds for; where the row path fails (want
// is then that one row), each must fail with its error.
func batchOnce(b *Batch, c *Compiled, want []rowPath) string {
	rows, out := make([]sqltypes.Row, len(want)), make([]sqltypes.Row, len(want))
	for i, w := range want {
		rows[i], out[i] = w.row, sqltypes.Row{sqltypes.NewString("unwritten")}
	}
	err := c.EvalBatch(b, rows, out, 0)
	for i, w := range want {
		switch {
		case w.err != nil || err != nil:
			if !sameResult(sqltypes.NullValue, err, sqltypes.NullValue, w.err) {
				return fmt.Sprintf("EvalBatch over %v: %s, row path %s", w.row, showResult(sqltypes.NullValue, err), showResult(w.v, w.err))
			}
		case !sameValue(out[i][0], w.v):
			return fmt.Sprintf("EvalBatch over %v (row %d of %d): %s, row path %s", w.row, i, len(rows), showResult(out[i][0], nil), showResult(w.v, nil))
		}
	}
	if c.Typed() && err == nil {
		if m := columnsOnce(b, c, want); m != "" {
			return m
		}
	}
	if c.Type != sqltypes.Bool {
		return ""
	}
	kept, err := c.SelectBatch(b, slices.Clone(rows))
	if want[0].holdsErr != nil || err != nil {
		if !sameResult(sqltypes.NullValue, err, sqltypes.NullValue, want[0].holdsErr) {
			return fmt.Sprintf("SelectBatch over %v: %s, row path %s", rows[0], showResult(sqltypes.NullValue, err), showResult(sqltypes.NullValue, want[0].holdsErr))
		}
		return ""
	}
	j := 0
	for _, w := range want {
		if !w.holds {
			continue
		}
		if j >= len(kept) || &kept[j][0] != &w.row[0] {
			return fmt.Sprintf("SelectBatch dropped %v, which the row path keeps", w.row)
		}
		j++
	}
	if j != len(kept) {
		return fmt.Sprintf("SelectBatch kept %d rows, the row path %d", len(kept), j)
	}
	return ""
}

// columnsOnce compares EvalColumns of c over the cells of want's rows,
// which the row path evaluates without error, with the row path: a row
// the program does not bail on must hold its value.
func columnsOnce(b *Batch, c *Compiled, want []rowPath) string {
	res := c.EvalColumns(b, len(want), func(col int, v *Column) {
		for i, w := range want {
			if col < len(w.row) {
				v.Set(i, &w.row[col])
			} else {
				v.SetNull(i)
			}
		}
	})
	for i, w := range want {
		if res.Bailed(i) {
			continue
		}
		got := sqltypes.NullValue
		if f, null := res.At(i); !null {
			got = sqltypes.NewFloat(f)
		}
		if !sameValue(got, w.v) {
			return fmt.Sprintf("EvalColumns over %v (row %d of %d): %s, row path %s", w.row, i, len(want), showResult(got, nil), showResult(w.v, nil))
		}
	}
	return ""
}

// kernelBatchRows are the rows the kernel sweep's batch arm evaluates a
// typed n-operand case over, next to the case's own row: every seventh
// n-tuple of kernelPool, which puts each pool value at each operand, so
// one vector mixes INTs, FLOATs, NULLs and non-numbers.
func kernelBatchRows(n int) []sqltypes.Row {
	var rows []sqltypes.Row
	for tuple := 0; tuple < pow(len(kernelPool), n); tuple += 7 {
		r := make(sqltypes.Row, n)
		for i, c := 0, tuple; i < n; i, c = i+1, c/len(kernelPool) {
			r[i] = kernelPool[c%len(kernelPool)]
		}
		rows = append(rows, r)
	}
	return rows
}

// kernelBatchArm is the kernel sweep's batch arm for e compiled under env:
// c is what Compile made of it, and the arm attaches a typed program to
// any tree that has one, a single operator too, so that every vector
// kernel meets the generic kernel it stands for; without one, the batch
// evaluates row by row.
func kernelBatchArm(b *Batch, c *Compiled, e ast.Expr, env *Env, row sqltypes.Row, rows []sqltypes.Row) string {
	tc, err := compileOperand(e, env)
	if err != nil {
		return ""
	}
	if tc = withProg(tc, e, env, 1); tc.prog == nil {
		m, _ := batchArm(b, c, []sqltypes.Row{row})
		return m
	}
	m, _ := batchArm(b, tc, append([]sqltypes.Row{row}, rows...))
	return m
}

// TestBatchMutantsAreCaught seeds the two faults the batch form must not
// have — a vector / that drops the INT∘INT bail (7/2 would be 3.5), and a
// gather that keeps the previous batch's NULL marks — and requires the
// composed sweep's batch arm to see each.
func TestBatchMutantsAreCaught(t *testing.T) {
	orig := vecKernels["/"]
	defer func() { vecKernels["/"] = orig }()
	for _, m := range []struct {
		name string
		arm  func() (restore func())
	}{
		{"a vector / without the INT∘INT bail", func() func() {
			vecKernels["/"] = func(x, y *vector, bail []uint64) {
				ints := slices.Clone(x.ints)
				clear(x.ints)
				orig(x, y, bail)
				copy(x.ints, ints)
			}
			return func() { vecKernels["/"] = orig }
		}},
		{"a gather that keeps stale NULL marks", func() func() {
			test.staleNulls = true
			return func() { test.staleNulls = false }
		}},
	} {
		restore := m.arm()
		caught := false
		for _, s := range composedShapes() {
			if n, _, _, first := sweepComposed(t, s); n > 0 {
				t.Logf("%s: fails %d cases of %s, e.g. %s", m.name, n, s.name, first[0])
				caught = true
				break
			}
		}
		restore()
		if !caught {
			t.Errorf("%s passed the composed sweep", m.name)
		}
	}
}
