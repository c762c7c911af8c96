package dbspinner

import (
	"dbspinner/internal/core"
	"dbspinner/internal/lexer"
)

// RecursiveQueries is recursiveQueries, for the external tests.
var RecursiveQueries = recursiveQueries

// SeedUnboundRuns arms the statement cache's seeded mutant on e: every
// prepared program runs with the literal values it was prepared from,
// whatever the text that ran it.
func SeedUnboundRuns(e *Engine) { e.stmts.test.noBind = true }

// SeedKeepFailed arms the statement cache's seeded mutant of the run
// state's hand-back on e: a statement keeps its run state after a run
// that failed.
func SeedKeepFailed(e *Engine) { e.stmts.test.keepFailed = true }

// RunStateOf returns the run state the statement e has cached for sql
// holds, nil when it holds none or sql is not cached.
func RunStateOf(e *Engine, sql string) *core.RunState {
	shape, lits, err := lexer.Shape(sql)
	if err != nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.stmts.byShape[shape] {
		if s.matches(lits) {
			return s.p.state
		}
	}
	return nil
}

// SetFaultSchedule makes sched the fault schedule of e and of every
// statement it has cached (nil: none), so that the next run of a
// statement prepared clean faults, or the next run of one prepared under
// a schedule runs clean.
func SetFaultSchedule(e *Engine, sched []Fault) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.FaultSchedule = sched
	for _, list := range e.stmts.byShape {
		for _, s := range list {
			if s.p.prog != nil {
				s.p.prog.FaultSchedule = sched
			}
		}
	}
}

// CatalogTable returns the table e's catalog holds under name, for a test
// to tell whether a statement changed it in place.
func CatalogTable(e *Engine, name string) any { return e.cat.Get(name) }

// SetChunkCeiling lowers the statement cache's ceiling on the row chunks
// e's cached statements carry between runs to bytes.
func SetChunkCeiling(e *Engine, bytes int64) { e.stmts.test.ceiling = bytes }

// SeedIgnoreCeiling arms the statement cache's seeded mutant of the
// ceiling on e: no statement's carried chunks are ever dropped.
func SeedIgnoreCeiling(e *Engine) { e.stmts.test.ignoreCeiling = true }

// CarriedChunkBytes returns the bytes of the row chunks the run states of
// e's cached statements carry, counted afresh from the states.
func CarriedChunkBytes(e *Engine) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, list := range e.stmts.byShape {
		for _, s := range list {
			n += s.p.state.ChunkBytes()
		}
	}
	return n
}

// ProgramOf returns the step program e has cached for sql, nil when sql
// is not cached.
func ProgramOf(e *Engine, sql string) *core.Program {
	shape, lits, err := lexer.Shape(sql)
	if err != nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.stmts.byShape[shape] {
		if s.matches(lits) {
			return s.p.prog
		}
	}
	return nil
}
