//go:build race

package wiretest

// raceEnabled is true in a test binary built with -race. The race
// runtime allocates shadow state beside the program's own and grows some
// buffers differently, so an allocation bound recorded without it
// measures something else under it.
const raceEnabled = true
