//go:build !race

package route

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
