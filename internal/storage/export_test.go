package storage

// SeedMutant arms one seeded mutant of the release path until the
// returned function is called: "ignore-pins" releases a table a reader
// pinned, "unpinned-clones" makes Clone not pin (a checkpoint's clone
// shares rows its table then hands back), and "ignore-aliases" releases
// a table another slot still binds.
func SeedMutant(name string) (restore func()) {
	flag := map[string]*bool{
		"ignore-pins":     &test.ignorePins,
		"unpinned-clones": &test.unpinnedClones,
		"ignore-aliases":  &test.ignoreAliases,
	}[name]
	if flag == nil {
		panic("storage: no mutant " + name)
	}
	*flag = true
	return func() { *flag = false }
}
