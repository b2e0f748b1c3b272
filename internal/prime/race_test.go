//go:build race

package prime_test

// raceEnabled is true when the tests run under the race detector, which
// slows the reference walker tenfold; the multi-second reference instances
// are then skipped, as under -short.
const raceEnabled = true
