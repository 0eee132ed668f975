//go:build !race

package tuple

const raceEnabled = false
