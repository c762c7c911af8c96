package dbspinner

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/txn"
)

// execStmt dispatches one DDL/DML statement. Every statement runs as
// its own autocommit transaction with table locks and WAL logging —
// the per-statement overhead that middleware and stored-procedure
// solutions pay and a single iterative-CTE plan avoids.
func (e *Engine) execStmt(stmt ast.Statement) (int64, error) {
	e.stats.Statements++
	switch t := stmt.(type) {
	case *ast.CreateTable:
		return e.execCreate(t)
	case *ast.DropTable:
		return e.execDrop(t)
	case *ast.Insert:
		return e.execInsert(t)
	case *ast.Update:
		return e.execUpdate(t)
	case *ast.Delete:
		return e.execDelete(t)
	case *ast.SelectStmt:
		return 0, fmt.Errorf("use Query for SELECT statements")
	case *ast.Explain:
		return 0, fmt.Errorf("use Explain for EXPLAIN statements")
	}
	return 0, fmt.Errorf("unsupported statement %T", stmt)
}

func (e *Engine) execCreate(ct *ast.CreateTable) (int64, error) {
	if ct.IfNotExists && e.cat.Get(ct.Name) != nil {
		return 0, nil
	}
	schema := make(sqltypes.Schema, len(ct.Cols))
	pk := -1
	for i, c := range ct.Cols {
		schema[i] = sqltypes.Column{Name: c.Name, Type: c.Type}
		if c.PrimaryKey {
			if pk >= 0 {
				return 0, fmt.Errorf("table %q declares multiple primary keys", ct.Name)
			}
			pk = i
		}
	}
	tx := e.txn.Begin()
	defer tx.Abort()
	tx.Lock(strings.ToLower(ct.Name), txn.Exclusive)
	if _, err := e.cat.Create(ct.Name, schema, pk); err != nil {
		return 0, err
	}
	e.stmts.clear() // a prepared plan depends on the schemas it resolved
	tx.LogDDL(ct.Name)
	return 0, tx.Commit()
}

func (e *Engine) execDrop(dt *ast.DropTable) (int64, error) {
	tx := e.txn.Begin()
	defer tx.Abort()
	tx.Lock(strings.ToLower(dt.Name), txn.Exclusive)
	if err := e.cat.Drop(dt.Name, dt.IfExists); err != nil {
		return 0, err
	}
	e.stmts.clear()
	tx.LogDDL(dt.Name)
	return 0, tx.Commit()
}

func (e *Engine) execInsert(ins *ast.Insert) (int64, error) {
	t := e.cat.Get(ins.Table)
	if t == nil {
		return 0, fmt.Errorf("table %q does not exist", ins.Table)
	}
	// Map the column list to positions (all columns when omitted).
	colIdx := make([]int, 0, len(t.Schema))
	if len(ins.Cols) == 0 {
		for i := range t.Schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range ins.Cols {
			idx := t.Schema.ColumnIndex(name)
			if idx < 0 {
				return 0, fmt.Errorf("column %q does not exist in %q", name, ins.Table)
			}
			colIdx = append(colIdx, idx)
		}
	}

	var srcRows []sqltypes.Row
	switch {
	case ins.Select != nil:
		node, err := plan.NewBuilder(e.rt).Build(ins.Select)
		if err != nil {
			return 0, err
		}
		if len(node.Columns()) != len(colIdx) {
			return 0, fmt.Errorf("INSERT has %d target columns but the query produces %d", len(colIdx), len(node.Columns()))
		}
		srcRows, err = exec.Run(node, e.rt, &e.stats.ExecStats)
		if err != nil {
			return 0, err
		}
	default:
		emptyEnv := &expr.Env{}
		for _, exprRow := range ins.Rows {
			if len(exprRow) != len(colIdx) {
				return 0, fmt.Errorf("INSERT row has %d values, expected %d", len(exprRow), len(colIdx))
			}
			row := make(sqltypes.Row, len(exprRow))
			for i, ex := range exprRow {
				c, err := expr.Compile(ex, emptyEnv)
				if err != nil {
					return 0, err
				}
				v, err := c.Eval(nil)
				if err != nil {
					return 0, err
				}
				row[i] = v
			}
			srcRows = append(srcRows, row)
		}
	}

	// Widen to full rows, cast to declared types.
	full := make([]sqltypes.Row, len(srcRows))
	for i, src := range srcRows {
		row := make(sqltypes.Row, len(t.Schema))
		for j := range row {
			row[j] = sqltypes.NullValue
		}
		for j, idx := range colIdx {
			v, err := sqltypes.Cast(src[j], t.Schema[idx].Type)
			if err != nil {
				return 0, fmt.Errorf("column %s: %w", t.Schema[idx].Name, err)
			}
			row[idx] = v
		}
		full[i] = row
	}

	tx := e.txn.Begin()
	defer tx.Abort()
	tx.Lock(strings.ToLower(ins.Table), txn.Exclusive)
	tx.LogInsert(ins.Table, full...)
	t.InsertBatch(full)
	return int64(len(full)), tx.Commit()
}

func (e *Engine) execDelete(del *ast.Delete) (int64, error) {
	t := e.cat.Get(del.Table)
	if t == nil {
		return 0, fmt.Errorf("table %q does not exist", del.Table)
	}
	tx := e.txn.Begin()
	defer tx.Abort()
	tx.Lock(strings.ToLower(del.Table), txn.Exclusive)

	var cond *expr.Compiled
	if del.Where != nil {
		var err error
		if cond, err = compileWhere(del.Where, expr.NewEnv(del.Table, t.Schema)); err != nil {
			return 0, err
		}
	}
	var removed int64
	for pi, part := range t.Parts {
		kept := part[:0]
		for _, r := range part {
			del := true
			if cond != nil {
				var err error
				if del, err = cond.Holds(r); err != nil {
					return 0, err
				}
			}
			if del {
				tx.LogDelete(t.Name, r)
				removed++
			} else {
				kept = append(kept, r)
			}
		}
		t.Parts[pi] = kept
	}
	return removed, tx.Commit()
}

// execUpdate implements UPDATE t SET ... [FROM src] [WHERE cond],
// including the PostgreSQL-style UPDATE ... FROM join used by the
// external baseline (Figure 1). The FROM side is hashed on the
// equality conjuncts of WHERE, so the update is a hash join rather
// than a quadratic scan.
func (e *Engine) execUpdate(u *ast.Update) (int64, error) {
	t := e.cat.Get(u.Table)
	if t == nil {
		return 0, fmt.Errorf("table %q does not exist", u.Table)
	}
	alias := u.Alias
	if alias == "" {
		alias = u.Table
	}
	targetEnv := expr.NewEnv(alias, t.Schema)

	// Resolve SET target columns.
	setIdx := make([]int, len(u.Sets))
	for i, s := range u.Sets {
		idx := t.Schema.ColumnIndex(s.Col)
		if idx < 0 {
			return 0, fmt.Errorf("column %q does not exist in %q", s.Col, u.Table)
		}
		setIdx[i] = idx
	}

	tx := e.txn.Begin()
	defer tx.Abort()
	tx.Lock(strings.ToLower(u.Table), txn.Exclusive)

	if u.From == nil {
		return e.updateInPlace(tx, t, u, targetEnv, setIdx)
	}
	return e.updateFromJoin(tx, t, u, alias, targetEnv, setIdx)
}

func (e *Engine) updateInPlace(tx *txn.Txn, t *storage.Table, u *ast.Update, env *expr.Env, setIdx []int) (int64, error) {
	var cond *expr.Compiled
	var err error
	if u.Where != nil {
		if cond, err = compileWhere(u.Where, env); err != nil {
			return 0, err
		}
	}
	setEx := make([]*expr.Compiled, len(u.Sets))
	for i, s := range u.Sets {
		setEx[i], err = expr.Compile(s.Expr, env)
		if err != nil {
			return 0, err
		}
	}
	var updated int64
	for _, part := range t.Parts {
		for ri, r := range part {
			if cond != nil {
				ok, err := cond.Holds(r)
				if err != nil {
					return 0, err
				}
				if !ok {
					continue
				}
			}
			nr, err := setRow(r, r, setEx, setIdx, t.Schema)
			if err != nil {
				return 0, err
			}
			tx.LogUpdate(t.Name, r, nr)
			part[ri] = nr
			updated++
		}
	}
	return updated, tx.Commit()
}

func (e *Engine) updateFromJoin(tx *txn.Txn, t *storage.Table, u *ast.Update, alias string, targetEnv *expr.Env, setIdx []int) (int64, error) {
	// Plan and run the FROM side through the ordinary builder.
	fromSel := &ast.SelectStmt{Body: &ast.SelectCore{
		Items: []ast.SelectItem{{Expr: &ast.Star{}}},
		From:  u.From,
	}}
	node, err := plan.NewBuilder(e.rt).Build(fromSel)
	if err != nil {
		return 0, err
	}
	fromRows, err := exec.Run(node, e.rt, &e.stats.ExecStats)
	if err != nil {
		return 0, err
	}

	// Combined environment: target columns then FROM columns (the FROM
	// plan's own qualifiers are preserved through the projection names,
	// so re-derive them from the plan's pre-projection columns).
	fromCols := node.Columns()
	combined := &expr.Env{}
	for i, b := range targetEnv.Cols {
		_ = i
		combined.Cols = append(combined.Cols, b)
	}
	base := len(targetEnv.Cols)
	fromOnly := &expr.Env{}
	for i, c := range fromColumnBindings(u.From, fromCols) {
		b := c
		b.Index = base + i
		combined.Cols = append(combined.Cols, b)
		c.Index = i
		fromOnly.Cols = append(fromOnly.Cols, c)
	}

	if u.Where == nil {
		return 0, fmt.Errorf("UPDATE ... FROM requires a WHERE clause correlating the tables")
	}

	// Split WHERE into hash keys (target = from equalities) and
	// residual conjuncts.
	var tKeys, fKeys []*expr.Compiled
	var resids []ast.Expr
	for _, conj := range ast.SplitConjuncts(u.Where) {
		b, ok := conj.(*ast.BinaryExpr)
		if ok && b.Op == "=" {
			lT, lErr := expr.Compile(b.L, targetEnv)
			rF, rErr := expr.Compile(b.R, fromOnly)
			if lErr == nil && rErr == nil {
				tKeys = append(tKeys, lT)
				fKeys = append(fKeys, rF)
				continue
			}
			lF, lErr2 := expr.Compile(b.L, fromOnly)
			rT, rErr2 := expr.Compile(b.R, targetEnv)
			if lErr2 == nil && rErr2 == nil {
				tKeys = append(tKeys, rT)
				fKeys = append(fKeys, lF)
				continue
			}
		}
		resids = append(resids, conj)
	}
	if len(tKeys) == 0 {
		return 0, fmt.Errorf("UPDATE ... FROM requires at least one equality between %s and the FROM tables", u.Table)
	}
	var residual *expr.Compiled
	if rem := ast.JoinConjuncts(resids); rem != nil {
		var err error
		if residual, err = compileWhere(rem, combined); err != nil {
			return 0, err
		}
	}
	setEx := make([]*expr.Compiled, len(u.Sets))
	for i, s := range u.Sets {
		setEx[i], err = expr.Compile(s.Expr, combined)
		if err != nil {
			return 0, err
		}
	}

	// Hash the FROM rows.
	build, err := exec.BuildHashIndex(fromRows, fKeys)
	if err != nil {
		return 0, err
	}

	var updated int64
	var combinedRow sqltypes.Row // scratch: Eval copies out what it keeps
	keyBuf := make([]sqltypes.Value, len(tKeys))
	for _, part := range t.Parts {
		for ri, r := range part {
			fi, err := build.First(r, tKeys, keyBuf)
			if err != nil {
				return 0, err
			}
			for ; fi >= 0; fi = build.Next(fi) {
				combinedRow = append(append(combinedRow[:0], r...), build.Rows[fi]...)
				if residual != nil {
					ok, err := residual.Holds(combinedRow)
					if err != nil {
						return 0, err
					}
					if !ok {
						continue
					}
				}
				nr, err := setRow(r, combinedRow, setEx, setIdx, t.Schema)
				if err != nil {
					return 0, err
				}
				tx.LogUpdate(t.Name, r, nr)
				part[ri] = nr
				updated++
				break // first match wins, as in PostgreSQL
			}
		}
	}
	return updated, tx.Commit()
}

// compileWhere compiles the WHERE of an UPDATE or a DELETE.
func compileWhere(where ast.Expr, env *expr.Env) (*expr.Compiled, error) {
	c, err := expr.Compile(where, env)
	if err != nil {
		return nil, err
	}
	if err := expr.Condition(c, "WHERE"); err != nil {
		return nil, err
	}
	return c, nil
}

// setRow returns a copy of the target row r with the SET expressions,
// evaluated over in, cast into their columns; a bare column is read in
// place.
func setRow(r, in sqltypes.Row, setEx []*expr.Compiled, setIdx []int, schema sqltypes.Schema) (sqltypes.Row, error) {
	nr := r.Clone()
	for i, c := range setEx {
		var v sqltypes.Value
		if col := c.Col; col >= 0 && col < len(in) {
			v = in[col]
		} else {
			var err error
			if v, err = c.Eval(in); err != nil {
				return nil, err
			}
		}
		cv, err := sqltypes.Cast(v, schema[setIdx[i]].Type)
		if err != nil {
			return nil, err
		}
		nr[setIdx[i]] = cv
	}
	return nr, nil
}

// fromColumnBindings derives qualified bindings for the FROM side of
// an UPDATE by pairing the flattened source tables with the star
// projection's output.
func fromColumnBindings(from ast.TableRef, projected []plan.ColInfo) []expr.Binding {
	// The star projection preserves column order: walk the FROM tree
	// left to right, assigning qualifiers.
	var quals []string
	var walk func(t ast.TableRef)
	walk = func(t ast.TableRef) {
		switch x := t.(type) {
		case *ast.JoinRef:
			walk(x.Left)
			walk(x.Right)
		case *ast.BaseTable:
			a := x.Alias
			if a == "" {
				a = x.Name
			}
			quals = append(quals, strings.ToLower(a))
		case *ast.SubqueryRef:
			quals = append(quals, strings.ToLower(x.Alias))
		}
	}
	walk(from)
	out := make([]expr.Binding, len(projected))
	qi := 0
	_ = qi
	// The projection loses per-table grouping; fall back to a single
	// qualifier when exactly one table is present, and unqualified
	// names otherwise (standard for UPDATE ... FROM with one source).
	qual := ""
	if len(quals) == 1 {
		qual = quals[0]
	}
	for i, c := range projected {
		out[i] = expr.Binding{Table: qual, Name: strings.ToLower(c.Name), Index: i, Type: c.Type}
	}
	return out
}
