//go:build !race

package scenario

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = false
