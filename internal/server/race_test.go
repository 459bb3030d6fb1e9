//go:build race

package server

// The race detector allocates on some of the paths TestStoredBodyAllocs
// pins, so a race build checks the counts measured under it.
func init() { raceEnabled = true }
