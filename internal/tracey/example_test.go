package tracey_test

import (
	"fmt"
	"log"

	"repro/internal/tracey"
)

// Example assigns race-free codes to a small asynchronous flow table and
// verifies them geometrically.
func Example() {
	ft := tracey.New("i0", "i1")
	for _, row := range [][]string{
		{"a", "a", "b"},
		{"b", "c", "b"},
		{"c", "c", "d"},
		{"d", "a", "d"},
	} {
		if _, err := ft.AddRow(row[0], row[1:]...); err != nil {
			log.Fatal(err)
		}
	}
	enc, err := tracey.Assign(ft)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bits:", enc.Bits)
	fmt.Println("race-free:", tracey.VerifyRaceFree(ft, enc) == nil)
	// Output:
	// bits: 2
	// race-free: true
}
