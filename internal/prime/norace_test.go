//go:build !race

package prime_test

// raceEnabled is true when the tests run under the race detector.
const raceEnabled = false
