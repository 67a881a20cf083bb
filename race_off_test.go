//go:build !race

package hyperloop

const raceEnabled = false
