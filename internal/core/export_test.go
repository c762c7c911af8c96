package core

// seedMutant arms one seeded mutant of the maintenance snapshot's holds
// until the returned function is called: "unheld-snapshot" makes the
// loop not hold its snapshot, so the rename that displaces the CTE table
// hands back the rows the next iteration diffs against, and
// "unheld-checkpoint" makes a checkpoint not hold the snapshot it
// captures, so a restore brings back one a later iteration let go.
func seedMutant(name string) (restore func()) {
	flag := map[string]*bool{
		"unheld-snapshot":   &test.unheldSnapshot,
		"unheld-checkpoint": &test.unheldCheckpoint,
	}[name]
	if flag == nil {
		panic("core: no mutant " + name)
	}
	*flag = true
	return func() { *flag = false }
}
