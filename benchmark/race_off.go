//go:build !race

package main

// raceEnabled reports that the binary was built with -race.
const raceEnabled = false
