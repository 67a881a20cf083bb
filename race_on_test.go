//go:build race

package hyperloop

// raceEnabled reports a -race build. The race runtime makes sync.Pool drop
// items at random, so allocation counts are not deterministic under it.
const raceEnabled = true
