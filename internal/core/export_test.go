package core

// seedMutant arms one seeded mutant until the returned function is
// called: "uncopied-survivor" makes each keyed merge keep the first CTE
// row it should copy, which the CTE hands back once it is released.
func seedMutant(name string) (restore func()) {
	flag := map[string]*bool{
		"uncopied-survivor": &test.uncopiedSurvivor,
	}[name]
	if flag == nil {
		panic("core: no mutant " + name)
	}
	*flag = true
	return func() { *flag = false }
}
