// Critical-race-free state assignment for an asynchronous machine —
// Tracey's 1966 problem, the origin of the dichotomy formulation the paper
// generalizes (its reference [23]). Transitions sharing an input column
// must be separated by a code bit constant across each transition pair;
// every such requirement is an encoding-dichotomy, and the minimum
// race-free assignment is a minimum prime-dichotomy cover.
//
// Run with: go run ./examples/asynchronous
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/tracey"
)

func main() {
	// A four-row flow table over two input columns; entries are next
	// states (an entry equal to its row is stable).
	ft := tracey.New("i0", "i1")
	rows := [][]string{
		{"a", "a", "b"},
		{"b", "c", "b"},
		{"c", "c", "d"},
		{"d", "a", "d"},
	}
	for _, r := range rows {
		if _, err := ft.AddRow(r[0], r[1:]...); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("Tracey dichotomy constraints:")
	for _, d := range ft.Dichotomies() {
		fmt.Printf("  %s\n", d.Format(ft.States))
	}

	enc, err := tracey.Assign(ft)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrace-free assignment (%d bits):\n%s", enc.Bits, enc)

	if err := tracey.VerifyRaceFree(ft, enc); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: no two same-column transitions can interleave codes")

	// Contrast: the naive binary assignment may race.
	naive := core.NewEncoding(ft.States, 2, []uint64{0b00, 0b01, 0b10, 0b11})
	if err := tracey.VerifyRaceFree(ft, naive); err != nil {
		fmt.Printf("\nnaive assignment a=00 b=01 c=10 d=11 fails:\n  %v\n", err)
	} else {
		fmt.Println("\nnaive assignment happens to be race-free here")
	}
}
