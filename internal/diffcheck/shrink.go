package diffcheck

import (
	"context"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/hypercube"
)

// Shrunk is a minimized failing reproducer.
type Shrunk struct {
	Set     *constraint.Set
	Witness *core.Encoding
	// Invariant is the invariant name the reproducer still violates.
	Invariant string
	// Report is the check outcome on the shrunk set.
	Report Report
}

// Shrink delta-debugs a failing instance down to a minimal reproducer: it
// greedily drops constraints, then unreferenced symbols, as long as
// CheckSet still reports a failure of the same invariant. The witness, when
// present, remains valid throughout — every constraint subset it satisfied
// stays satisfied, and symbol removal only projects its codes — so it is
// carried along rather than regenerated. The first failure's invariant on
// the full set anchors the predicate; shrinking is deterministic.
func Shrink(ctx context.Context, cs *constraint.Set, witness *core.Encoding, opts Options) Shrunk {
	full := CheckSet(ctx, cs, witness, opts)
	if full.OK() {
		return Shrunk{Set: cs, Witness: witness, Report: full}
	}
	invariant := full.Failures[0].Invariant
	failsWith := func(c *constraint.Set, w *core.Encoding) (Report, bool) {
		rep := CheckSet(ctx, c, w, opts)
		for _, f := range rep.Failures {
			if f.Invariant == invariant {
				return rep, true
			}
		}
		return rep, false
	}

	cur, curW, curRep := cs, witness, full
	for pass := 0; pass < 8; pass++ {
		changed := false
		// Constraint-level: try dropping each constraint in flat order.
		for i := 0; i < cur.Len(); i++ {
			cand := cur.Without(i)
			if rep, bad := failsWith(cand, curW); bad {
				cur, curRep = cand, rep
				changed = true
				i--
			}
		}
		// Symbol-level: cut symbols no remaining constraint references,
		// projecting the witness onto the survivors.
		compacted, kept := cur.Compact()
		if compacted.N() < cur.N() {
			var w *core.Encoding
			if curW != nil {
				codes := make([]hypercube.Code, len(kept))
				for i, old := range kept {
					codes[i] = curW.Codes[old]
				}
				w = core.NewEncoding(compacted.Syms, curW.Bits, codes)
			}
			if rep, bad := failsWith(compacted, w); bad {
				cur, curW, curRep = compacted, w, rep
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return Shrunk{Set: cur, Witness: curW, Invariant: invariant, Report: curRep}
}
