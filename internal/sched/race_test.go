//go:build race

package sched

// The race detector's instrumentation allocates on its own, so allocation
// counts measured under -race say nothing about the code under test.
func init() { raceEnabled = true }
