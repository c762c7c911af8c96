package dbspinner

// SeedUnboundRuns arms the statement cache's seeded mutant on e: every
// prepared program runs with the literal values it was prepared from,
// whatever the text that ran it.
func SeedUnboundRuns(e *Engine) { e.stmts.test.noBind = true }
