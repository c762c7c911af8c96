package dbspinner

import (
	"dbspinner/internal/ast"
	"dbspinner/internal/core"
	"dbspinner/internal/lexer"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
)

// prepared is a SELECT planned and ready to run: its step program —
// the rewrite of its iterative and recursive CTEs, or no steps and the
// statement as the final query — its output column names, and its run
// state: the storage its last clean run let go, which its next run
// fills again (core.RunState). The state is nil while a run holds it,
// and after a run that failed.
type prepared struct {
	prog  *core.Program
	cols  []string
	state *core.RunState
}

// prepare plans sel into its step program (core.Rewrite), verified
// unless the config says otherwise.
func (e *Engine) prepare(sel *ast.SelectStmt) (*prepared, error) {
	prog, err := core.Rewrite(sel, e.rt, e.coreOptions())
	if err != nil {
		return nil, err
	}
	return &prepared{prog: prog, cols: colNames(prog.FinalColumns)}, nil
}

// stmtCacheCap is how many prepared SELECTs an engine keeps. A full
// cache drops the one used least recently.
const stmtCacheCap = 64

// chunkCeiling is the most bytes of row chunks the cached statements'
// run states carry between runs, together. Above it the cache drops the
// chunks of the statements used least recently first (stmtCache.trim).
const chunkCeiling = 64 << 20

// stmtCache holds an engine's prepared SELECTs by shape (lexer.Shape).
// A text of a cached shape runs the cached program with its own literal
// values bound, provided it agrees with the text the program was
// prepared from on every consumed literal (ast.Uses): those values the
// program was built from. DDL empties the cache: a program depends on
// the catalog's schemas. Data changes do not: a program derives nothing
// from the rows, and a statement's run state holds storage and size
// hints, never an index or a row. A statement dropped from the cache
// takes its run state with it. The row chunks the run states carry
// into their statements' next runs stay under chunkCeiling.
type stmtCache struct {
	byShape map[string][]*cachedStmt
	n       int
	clock   uint64
	// test is zero outside tests: the seeded mutants of the rules above
	// — a consumed literal left out of the key, the cache kept across
	// DDL, runs with no values bound.
	test struct {
		dropSlot          int
		keepOnDDL, noBind bool
		// keepFailed hands a statement's run state back after a run
		// that failed.
		keepFailed bool
		// ceiling, when positive, replaces chunkCeiling; ignoreCeiling
		// is the mutant that never drops a statement's chunks.
		ceiling       int64
		ignoreCeiling bool
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
	shape    string
	used     uint64
}

// lookup returns the prepared statement a text of shape whose literal
// tokens are lits runs, and the values it binds to its literal slots, or
// nil.
func (c *stmtCache) lookup(shape string, lits []lexer.Token) (*cachedStmt, []sqltypes.Value) {
	for _, s := range c.byShape[shape] {
		if !s.matches(lits) {
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

func (s *cachedStmt) matches(lits []lexer.Token) bool {
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

// add caches p, prepared from a text of shape whose literal tokens are
// lits and whose literal record after planning is uses, and binds lits
// as lookup would.
func (c *stmtCache) add(shape string, lits []lexer.Token, uses *ast.Uses, p *prepared) (params []sqltypes.Value, ok bool) {
	s := &cachedStmt{p: p, uses: uses, shape: shape}
	for _, slot := range uses.Consumed() {
		if slot == c.test.dropSlot {
			continue
		}
		s.consumed = append(s.consumed, slot-1)
		s.texts = append(s.texts, lits[slot-1].Text)
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

// trim sums the bytes of the row chunks the cached statements' run
// states carry and, while that is above the ceiling, drops the chunks of
// the statement used least recently that carries any.
func (c *stmtCache) trim() {
	ceiling := int64(chunkCeiling)
	if c.test.ceiling > 0 {
		ceiling = c.test.ceiling
	}
	var total int64
	for _, list := range c.byShape {
		for _, s := range list {
			total += s.p.state.ChunkBytes()
		}
	}
	for total > ceiling && !c.test.ignoreCeiling {
		var old *cachedStmt
		for _, list := range c.byShape {
			for _, s := range list {
				if (old == nil || s.used < old.used) && s.p.state.ChunkBytes() > 0 {
					old = s
				}
			}
		}
		total -= old.p.state.ChunkBytes()
		old.p.state.DropChunks()
	}
}

// clear drops every statement.
func (c *stmtCache) clear() {
	if c.test.keepOnDDL {
		return
	}
	clear(c.byShape)
	c.n = 0
}
