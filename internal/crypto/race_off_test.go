//go:build !race

package crypto

const raceEnabled = false
