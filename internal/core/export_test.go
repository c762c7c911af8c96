package core

// seedMutant arms one seeded mutant until the returned function is
// called. Two are of the maintenance snapshot's holds: "unheld-snapshot"
// makes the loop not hold its snapshot, so the rename that displaces the
// CTE table hands back the rows the next iteration diffs against, and
// "unheld-checkpoint" makes a checkpoint not hold the snapshot it
// captures, so a restore brings back one a later iteration let go. One
// is of the keyed merge's ownership: "uncopied-survivor" makes each merge
// keep the first CTE row it should copy, which the CTE hands back once
// it is released.
func seedMutant(name string) (restore func()) {
	flag := map[string]*bool{
		"unheld-snapshot":   &test.unheldSnapshot,
		"unheld-checkpoint": &test.unheldCheckpoint,
		"uncopied-survivor": &test.uncopiedSurvivor,
	}[name]
	if flag == nil {
		panic("core: no mutant " + name)
	}
	*flag = true
	return func() { *flag = false }
}
