//go:build race

package core

// raceEnabled: under the race detector the schedule explorer keeps to m = 2.
const raceEnabled = true
