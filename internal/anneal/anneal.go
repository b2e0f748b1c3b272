// Package anneal is the Table-3 comparator: simulated annealing over code
// assignments with an espresso-evaluated cost function, modeled on the
// annealing encoder built into MIS-MV. Moves are pairwise code swaps and
// relocations to unused codes; the paper's experiments vary the number of
// swaps attempted per temperature point (10 for quality, 4 when the larger
// examples cannot complete).
package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hypercube"
)

// Options configures the annealer.
type Options struct {
	// Bits fixes the code length; 0 means minimum length.
	Bits int
	// Metric is the cost function; the paper's multi-level flow anneals on
	// SOP literals. Default Literals.
	Metric cost.Metric
	// SwapsPerTemp is the number of moves attempted per temperature point
	// (the paper uses 10, or 4 on the large examples). 0 means 10.
	SwapsPerTemp int
	// Temps is the number of temperature points of the geometric
	// schedule; 0 means DefaultTemps.
	Temps int
	// Seed makes runs reproducible; 0 means seed 1.
	Seed int64
	// UseCache enables the memoizing cost evaluator. MIS-MV's annealer
	// re-minimized the constraint functions on every move, which is what
	// drives the paper's Table-3 run times; the default therefore
	// evaluates uncached. The cached mode exists for the ablation bench.
	UseCache bool
}

// The annealing schedule: DefaultTemps temperature points by default,
// starting at initialTemp and multiplied by cooling after each point.
const (
	DefaultTemps = 120
	initialTemp  = 8.0
	cooling      = 0.92
)

// Stats reports the work the annealer did.
type Stats struct {
	Evaluations int
	Moves       int
	Accepted    int
	Elapsed     time.Duration
	FinalCost   int
}

// Encode anneals an encoding for the input constraints of cs.
func Encode(cs *constraint.Set, opts Options) (*core.Encoding, Stats, error) {
	start := time.Now()
	if err := cs.Validate(); err != nil {
		return nil, Stats{}, err
	}
	n := cs.N()
	bits := opts.Bits
	if bits == 0 {
		bits = hypercube.MinBits(n)
	}
	swaps := opts.SwapsPerTemp
	if swaps == 0 {
		swaps = 10
	}
	temps := opts.Temps
	if temps == 0 {
		temps = DefaultTemps
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	limit := 1 << uint(bits)
	if n > limit {
		return nil, Stats{}, fmt.Errorf("anneal: %d symbols do not fit in %d bits", n, bits)
	}

	codes := make([]hypercube.Code, n)
	used := make([]bool, limit)
	for i := 0; i < n; i++ {
		codes[i] = hypercube.Code(i)
		used[i] = true
	}
	stats := Stats{}
	// The assignment wraps codes by reference, so the in-place moves below
	// are visible through it: one subset bitset for the whole run.
	fa := cost.FullAssignment(bits, codes)
	var eval func() int
	if opts.UseCache {
		evaluator := cost.NewEvaluator(cs)
		eval = func() int {
			stats.Evaluations++
			return evaluator.Of(opts.Metric, fa)
		}
	} else {
		eval = func() int {
			stats.Evaluations++
			return cost.Of(opts.Metric, cs, fa)
		}
	}
	cur := eval()
	bestCodes := append([]hypercube.Code(nil), codes...)
	bestCost := cur

	// The move count per temperature scales with the number of symbols, as
	// annealing state-assignment tools do; the paper's "swaps per
	// temperature point" is the per-symbol multiplier.
	movesPerTemp := swaps * n
	temp := initialTemp
	// Fewer than two symbols admit no swap (drawing a second symbol would
	// never end) and no move that changes the cost, so the identity
	// assignment is final and no random number is drawn.
	if n < 2 {
		temps = 0
	}
	for t := 0; t < temps; t++ {
		for mv := 0; mv < movesPerTemp; mv++ {
			stats.Moves++
			// Pairwise swap, or relocation when free codes exist.
			var undo func()
			if rng.Intn(2) == 0 && limit > n {
				s := rng.Intn(n)
				var free []int
				for c := 0; c < limit; c++ {
					if !used[c] {
						free = append(free, c)
					}
				}
				c := free[rng.Intn(len(free))]
				old := codes[s]
				used[old], used[c] = false, true
				codes[s] = hypercube.Code(c)
				undo = func() {
					used[c], used[old] = false, true
					codes[s] = old
				}
			} else {
				a, b := rng.Intn(n), rng.Intn(n)
				for b == a {
					b = rng.Intn(n)
				}
				codes[a], codes[b] = codes[b], codes[a]
				undo = func() { codes[a], codes[b] = codes[b], codes[a] }
			}
			next := eval()
			delta := float64(next - cur)
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				cur = next
				stats.Accepted++
				if cur < bestCost {
					bestCost = cur
					copy(bestCodes, codes)
				}
			} else {
				undo()
			}
		}
		temp *= cooling
	}
	stats.Elapsed = time.Since(start)
	stats.FinalCost = bestCost
	return core.NewEncoding(cs.Syms, bits, bestCodes), stats, nil
}
