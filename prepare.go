package dbspinner

import (
	"dbspinner/internal/ast"
	"dbspinner/internal/core"
	"dbspinner/internal/lexer"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// prepared is a SELECT planned and ready to run: its iterative step
// program, its recursive plan or its plain plan — exactly one is set —
// its output column names, and its run state: the storage its last clean
// run let go, which its next run fills again (core.RunState). The state
// is nil while a run holds it, and after a run that failed.
type prepared struct {
	prog  *core.Program
	rec   *core.Recursive
	node  plan.Node
	cols  []string
	state *core.RunState
}

// prepare plans sel: an iterative CTE is rewritten (and verified) into a
// step program, a recursive CTE planned for the fixed-point evaluator,
// anything else planned as one tree.
func (e *Engine) prepare(sel *ast.SelectStmt) (*prepared, error) {
	switch {
	case core.HasIterative(sel):
		prog, err := core.Rewrite(sel, e.rt, e.coreOptions())
		if err != nil {
			return nil, err
		}
		return &prepared{prog: prog, cols: colNames(prog.FinalColumns)}, nil
	case sel.With != nil && sel.With.Recursive:
		rec, err := core.PrepareRecursive(sel, e.rt, e.cfg.Partitions, e.cfg.MaxIterations)
		if err != nil {
			return nil, err
		}
		return &prepared{rec: rec, cols: colNames(rec.Final.Columns())}, nil
	default:
		node, err := plan.NewBuilder(e.rt).Build(sel)
		if err != nil {
			return nil, err
		}
		return &prepared{node: node, cols: colNames(node.Columns())}, nil
	}
}

// citesSource reports whether running p can report text that cites
// source offsets: the termination diagnostics an iteration-cap failure
// carries, which point into the text the program was prepared from.
func (p *prepared) citesSource() bool {
	if p.prog == nil {
		return false
	}
	for _, v := range p.prog.Verdicts {
		if len(v.Diags) > 0 {
			return true
		}
	}
	return false
}

// stmtCacheCap is how many prepared SELECTs an engine keeps. A full
// cache drops the one used least recently.
const stmtCacheCap = 64

// stmtCache holds an engine's prepared SELECTs by shape (lexer.Shape).
// A text of a cached shape runs the cached program with its own literal
// values bound, provided it agrees with the text the program was
// prepared from on every consumed literal (ast.Uses): those values the
// program was built from. DDL empties the cache: a program depends on
// the catalog's schemas. Data changes do not: nothing a program runs
// by was derived from the rows (the one data-dependent fact, converge's
// |rows|+2 bound, feeds only EXPLAIN and the cost estimate), and a
// statement's run state holds storage and size hints, never an index or
// a row. A statement dropped from the cache takes its run state with it.
type stmtCache struct {
	byShape map[string][]*cachedStmt
	n       int
	clock   uint64
	// test is zero outside tests: the seeded mutants of the rules above
	// — a consumed literal left out of the key, the cache kept across
	// DDL, an offset-citing program not keyed on its text, runs with no
	// values bound.
	test struct {
		dropSlot                      int
		keepOnDDL, ignoreText, noBind bool
		// keepFailed hands a statement's run state back after a run
		// that failed.
		keepFailed bool
	}
}

// cachedStmt is one prepared SELECT.
type cachedStmt struct {
	p *prepared
	// uses is the parsed statement's literal record: the consumed
	// literals, and what its plan prints them as (Uses.Show).
	uses *ast.Uses
	// consumed are the 0-based positions, among the text's literal
	// tokens, of the consumed literals, and texts their token texts.
	consumed []int
	texts    []string
	// text is the whole SQL text when p cites source offsets: only that
	// text may run it, since any other could place its tokens elsewhere.
	text  string
	shape string
	used  uint64
}

// lookup returns the prepared statement sql runs and the values it binds
// to its literal slots, or nil.
func (c *stmtCache) lookup(sql, shape string, lits []lexer.Token) (*cachedStmt, []sqltypes.Value) {
	for _, s := range c.byShape[shape] {
		if !s.matches(sql, lits) {
			continue
		}
		params, ok := c.bind(s, lits)
		if !ok {
			return nil, nil // a literal the parser rejects: the miss reports it
		}
		c.clock++
		s.used = c.clock
		return s, params
	}
	return nil, nil
}

func (s *cachedStmt) matches(sql string, lits []lexer.Token) bool {
	if s.text != "" {
		return sql == s.text
	}
	for i, at := range s.consumed {
		if lits[at].Text != s.texts[i] {
			return false
		}
	}
	return true
}

// bind converts the literal tokens to the values bound to their slots.
// ok is false when a literal token does not convert and its value is
// not consumed; a consumed one that does not convert (the magnitude of
// -9223372036854775808, folded into a literal of its own) has no slot
// anything reads.
func (c *stmtCache) bind(s *cachedStmt, lits []lexer.Token) (params []sqltypes.Value, ok bool) {
	if c.test.noBind {
		return nil, true
	}
	params = make([]sqltypes.Value, len(lits))
	next := 0 // into s.consumed, which is ascending
	for i, t := range lits {
		consumed := next < len(s.consumed) && s.consumed[next] == i
		if consumed {
			next++
		}
		v, err := parser.LiteralValue(t)
		if err != nil && !consumed {
			return nil, false
		}
		params[i] = v
	}
	return params, true
}

// add caches p, prepared from sql, whose literal record after planning
// is uses, and binds sql's literals as lookup would.
func (c *stmtCache) add(sql, shape string, lits []lexer.Token, uses *ast.Uses, p *prepared) (params []sqltypes.Value, ok bool) {
	s := &cachedStmt{p: p, uses: uses, shape: shape}
	for _, slot := range uses.Consumed() {
		if slot == c.test.dropSlot {
			continue
		}
		s.consumed = append(s.consumed, slot-1)
		s.texts = append(s.texts, lits[slot-1].Text)
	}
	if p.citesSource() && !c.test.ignoreText {
		s.text = sql
	}
	if c.n >= stmtCacheCap {
		c.evict()
	}
	if c.byShape == nil {
		c.byShape = make(map[string][]*cachedStmt)
	}
	c.byShape[shape] = append(c.byShape[shape], s)
	c.n++
	c.clock++
	s.used = c.clock
	return c.bind(s, lits)
}

// evict drops the least recently used statement.
func (c *stmtCache) evict() {
	var old *cachedStmt
	for _, list := range c.byShape {
		for _, s := range list {
			if old == nil || s.used < old.used {
				old = s
			}
		}
	}
	list := c.byShape[old.shape]
	for i, s := range list {
		if s == old {
			list = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(c.byShape, old.shape)
	} else {
		c.byShape[old.shape] = list
	}
	c.n--
}

// clear drops every statement.
func (c *stmtCache) clear() {
	if c.test.keepOnDDL {
		return
	}
	clear(c.byShape)
	c.n = 0
}
