//go:build !race

package core

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation adds allocations of its own — see alloc_test.go.
const raceEnabled = false
