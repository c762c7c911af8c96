//go:build race

package exec

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
