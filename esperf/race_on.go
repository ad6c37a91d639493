//go:build race

package main

// The race detector slows every hop several-fold, so a race build
// refuses to record.
func init() { raceEnabled = true }
