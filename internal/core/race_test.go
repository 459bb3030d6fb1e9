//go:build race

package core

// The race detector allocates on the paths TestSolvePairAllocs pins, so a
// race build checks a bound measured under it.
func init() { raceEnabled = true }
