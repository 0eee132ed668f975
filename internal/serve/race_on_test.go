//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// back, so exact allocation counts of pooled paths are noise.
const raceEnabled = true
