//go:build race

package crypto

// raceEnabled is set when the race detector is on. Under it sync.Pool drops
// a share of the states put back, so allocation bounds do not hold.
const raceEnabled = true
