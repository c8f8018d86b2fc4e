//go:build !race

package wiretest

// raceEnabled is true in a test binary built with -race (see race.go).
const raceEnabled = false
