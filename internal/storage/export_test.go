package storage

// SeedMutant arms one seeded mutant of the release path until the
// returned function is called: "ignore-pins" releases a table a reader
// pinned, "unpinned-clones" makes Clone neither pin nor hold its table
// (a checkpoint's clone shares rows its table then hands back while the
// checkpoint lives), "ignore-aliases" releases a
// table another slot still binds, and "ignore-holds" releases a table a
// reader still holds. Two are of borrowing: "early-lender" lets go of
// the lender when the borrower is created instead of when it is
// released, and "unpinned-lender" stops a borrower's Pin at the
// borrower.
func SeedMutant(name string) (restore func()) {
	flag := map[string]*bool{
		"ignore-pins":     &test.ignorePins,
		"unpinned-clones": &test.unpinnedClones,
		"ignore-aliases":  &test.ignoreAliases,
		"ignore-holds":    &test.ignoreHolds,
		"early-lender":    &test.earlyLender,
		"unpinned-lender": &test.unpinnedLender,
	}[name]
	if flag == nil {
		panic("storage: no mutant " + name)
	}
	*flag = true
	return func() { *flag = false }
}

// Outstanding returns how many holds, over every table, are not yet let
// go.
func Outstanding() int64 { return outstanding.Load() }
