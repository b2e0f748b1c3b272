package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"

	"repro/internal/decomp"
)

// The two digests below pin bytes that downstream consumers key on: the
// perfbench serve workload replays generated texts, the service caches by
// canonical component hash, and difftest replays failures from their seed.
// A refactor of the generator or of the set operations must leave both
// unchanged; a deliberate change of either output updates the constant.

// TestGeneratorDigest pins gen.Random's multi-component output — the set
// text and the witness — for the decomposable shapes the serve benchmark
// draws: DefaultConfig(4k) with Components k for k = 2 and 3, seeds 1–4000.
func TestGeneratorDigest(t *testing.T) {
	h := sha256.New()
	for _, k := range []int{2, 3} {
		cfg := DefaultConfig(4 * k)
		cfg.Components = k
		for seed := int64(1); seed <= 4000; seed++ {
			in := Random(seed, cfg)
			io.WriteString(h, in.Set.Format())
			fmt.Fprintln(h, in.Witness.Bits, in.Witness.Codes)
		}
	}
	checkDigest(t, h, "2579ed83bfea574095eed80a2260402bdc664559c76d9662cd7fb121caaeee74")
}

// TestSetOperationsDigest pins Clone, Compact and decomp.Split on generated
// sets over 4–12 symbols, single- and multi-component: the rendered copies,
// Compact's kept indices (on the full set and on one missing half its faces
// and every dominance, so some symbols fall out), and for decomposable sets
// every component's local set, global index map and canonical hash.
func TestSetOperationsDigest(t *testing.T) {
	h := sha256.New()
	for n := 4; n <= 12; n++ {
		for _, k := range []int{0, 2, 3} {
			for seed := int64(1); seed <= 300; seed++ {
				cfg := DefaultConfig(n)
				cfg.Components = k
				cfg.Distance2s = 1
				cfg.NonFaces = int(seed % 2)
				cs := Random(seed, cfg).Set
				io.WriteString(h, cs.Clone().Format())
				c, kept := cs.Compact()
				fmt.Fprintln(h, c.Format(), kept)
				part := cs.Clone()
				part.Faces = part.Faces[len(part.Faces)/2:]
				part.Dominances = nil
				c, kept = part.Compact()
				fmt.Fprintln(h, c.Format(), kept)
				if !decomp.Decomposable(cs) {
					continue
				}
				plan, err := decomp.Split(cs)
				if err != nil {
					t.Fatalf("n=%d k=%d seed %d: %v", n, k, seed, err)
				}
				for _, comp := range plan.Components {
					fmt.Fprintln(h, comp.Set.Format(), comp.GlobalOf, comp.Hash)
				}
			}
		}
	}
	checkDigest(t, h, "2ccacc0b068a812cb2ada9146048e6285407ea3b2712f15aec8e1cb89e3ddc09")
}

func checkDigest(t *testing.T, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
}
