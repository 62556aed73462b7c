//go:build race

package stest_test

// raceEnabled reports whether the race detector is on, which allocates:
// a count taken under it is not the program's.
const raceEnabled = true
