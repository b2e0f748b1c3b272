// Testability-driven encoding (Sections 8.2 and 8.3): distance-2
// constraints keep selected state pairs two bit-flips apart (fail-safe /
// fully testable realizations) and non-face constraints force a face to be
// shared, both lowered onto the final binate covering step.
//
// Run with: go run ./examples/testability
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/hypercube"
)

func main() {
	// The paper's Section-8.3 example: face constraints (a,b), (b,c,d),
	// (a,e), (d,f) plus the non-face constraint "a,b,e(" — the face
	// spanned by a,b,e must contain some other symbol. We add a
	// distance-2 requirement between a and f for the Section-8.2 story.
	cs, err := constraint.ParseString(`
		symbols a b c d e f
		face a b
		face b c d
		face a e
		face d f
		nonface a b e
		dist2 a f
	`)
	if err != nil {
		log.Fatal(err)
	}

	res, err := core.ExactEncodeCtx(context.Background(), cs, core.ExactOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoding with testability constraints (%d bits):\n%s", res.Encoding.Bits, res.Encoding)

	if v := core.Verify(cs, res.Encoding); len(v) != 0 {
		log.Fatalf("verification failed: %v", v)
	}
	fmt.Println("verified: faces, non-face and distance-2 all hold")

	a, _ := res.Encoding.Code("a")
	f, _ := res.Encoding.Code("f")
	fmt.Printf("distance(a, f) = %d\n", hypercube.Distance(a, f))

	// Show the intruded face, as the paper does for its example.
	b, _ := res.Encoding.Code("b")
	e, _ := res.Encoding.Code("e")
	face := hypercube.Span(res.Encoding.Bits, a, b, e)
	for s := 0; s < cs.N(); s++ {
		name := cs.Syms.Name(s)
		if name == "a" || name == "b" || name == "e" {
			continue
		}
		if face.Contains(res.Encoding.Codes[s]) {
			fmt.Printf("symbol %s shares the face of (a,b,e), as required\n", name)
		}
	}
}
