package diffcheck

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/gen"
	"repro/internal/hypercube"
	"repro/internal/kiss"
	"repro/internal/par"
)

// fuzzOpts keeps per-input solver work small: native fuzzing throughput
// matters more than per-instance depth, and the seeded difftest driver
// already covers the deep end.
func fuzzOpts() Options {
	return Options{Timeout: 5 * time.Second, SkipAnneal: true}
}

// fuzzable rejects inputs whose solve cost would drown the fuzzer: the
// exact pipeline is exponential in symbols and the chain search is
// factorial, so both are capped hard.
func fuzzable(cs *constraint.Set) bool {
	return cs.N() <= 7 && cs.Len() <= 16
}

// FuzzEncode feeds arbitrary text through the constraint parser and — when
// it parses as a small set — through the full cross-solver invariant
// matrix. Any invariant violation, or any panic anywhere in the parse /
// feasibility / exact / heuristic stack, is a finding.
func FuzzEncode(f *testing.F) {
	f.Add("symbols a b c d\nface a b\nface b c\n")
	f.Add("symbols a b c d\nface a b [ c ]\ndom a > b\ndisj a = b | c\n")
	f.Add("symbols a b c d e\nextdisj a = b & c | d\ndist2 a e\nnonface a b c\n")
	f.Add("symbols a b c\nchain a b c\n")
	f.Add("symbols s0 s1 s4 s5\nface s0 s4\nface s4 s5 [ s1 ]\ndist2 s5 s4\ndist2 s0 s4\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 2048 {
			return
		}
		cs, err := constraint.Parse(strings.NewReader(text))
		if err != nil || !fuzzable(cs) {
			return
		}
		rep := CheckSet(context.Background(), cs, nil, fuzzOpts())
		if !rep.OK() {
			t.Fatalf("invariant violations on parsed input:\n%s\ninput:\n%s", rep.String(), text)
		}
	})
}

// FuzzSATEncode is the focused SAT-vs-branch-and-bound differential
// target: arbitrary text that parses as a small constraint set is solved
// by both covering backends directly (no sampling — every input runs
// both), and the runs must agree on feasibility, on proven code length,
// and produce oracle-clean encodings. Narrower than FuzzEncode's full
// matrix, so the fuzzer spends its budget exactly on the new engine.
func FuzzSATEncode(f *testing.F) {
	f.Add("symbols a b c d\nface a b\nface b c\n")
	f.Add("symbols a b c d\nface a b [ c ]\ndom a > b\ndisj a = b | c\n")
	f.Add("symbols a b c d e\nextdisj a = b & c | d\ndist2 a e\nnonface a b c\n")
	f.Add("dom a > b\ndom b > a\n")
	f.Add("symbols a b c d e f\nface a b\nface c d\ndom e > f\ndist2 a f\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 2048 {
			return
		}
		cs, err := constraint.Parse(strings.NewReader(text))
		if err != nil || !fuzzable(cs) || len(cs.Chains) > 0 {
			return
		}
		ctx := context.Background()
		bb, bbErr := solveExact(ctx, cs, 1, 5*time.Second, core.BackendBranchBound)
		st, stErr := solveExact(ctx, cs, 1, 5*time.Second, core.BackendSAT)
		if budgetExhausted(bbErr) || budgetExhausted(stErr) {
			return
		}
		switch {
		case bbErr == nil && stErr == nil:
			if v := core.Verify(cs, bb.Encoding); len(v) != 0 {
				t.Fatalf("bb encoding fails the oracle: %v\ninput:\n%s", v, text)
			}
			if v := core.Verify(cs, st.Encoding); len(v) != 0 {
				t.Fatalf("sat encoding fails the oracle: %v\ninput:\n%s", v, text)
			}
			if bb.Optimal && st.Optimal && bb.Encoding.Bits != st.Encoding.Bits {
				t.Fatalf("backends disagree on the optimum: bb=%d sat=%d\ninput:\n%s",
					bb.Encoding.Bits, st.Encoding.Bits, text)
			}
			if bb.Optimal && st.Encoding.Bits < bb.Encoding.Bits {
				t.Fatalf("sat beat bb's proven optimum: sat=%d bb=%d\ninput:\n%s",
					st.Encoding.Bits, bb.Encoding.Bits, text)
			}
			if st.Optimal && bb.Encoding.Bits < st.Encoding.Bits {
				t.Fatalf("bb beat sat's proven optimum: bb=%d sat=%d\ninput:\n%s",
					bb.Encoding.Bits, st.Encoding.Bits, text)
			}
		case bbErr != nil && stErr != nil:
			// Both must classify the instance the same way.
			bbInf := errors.Is(bbErr, core.ErrInfeasible)
			stInf := errors.Is(stErr, core.ErrInfeasible)
			if bbInf != stInf {
				t.Fatalf("backends disagree on infeasibility: bb=%v sat=%v\ninput:\n%s", bbErr, stErr, text)
			}
		default:
			t.Fatalf("backends disagree on solvability: bb=%v sat=%v\ninput:\n%s", bbErr, stErr, text)
		}
	})
}

// FuzzParseKISS fuzzes the KISS2 reader: no panics on arbitrary bytes, and
// every machine it accepts must validate and survive a Format → Parse
// round trip with its shape intact.
func FuzzParseKISS(f *testing.F) {
	f.Add(".i 1\n.o 1\n.r a\n0 a b 1\n1 b a 0\n.e\n")
	f.Add(".i 2\n.o 2\n.s 2\n.p 2\n00 s0 s1 11\n-1 s1 s0 0-\n")
	f.Add(".i 1\n.o 1\n0 only only -\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 4096 {
			return
		}
		m, err := kiss.ParseString(text)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted machine fails validation: %v\ninput:\n%s", err, text)
		}
		back, err := kiss.ParseString(kiss.Format(m))
		if err != nil {
			t.Fatalf("formatted machine does not re-parse: %v\nformatted:\n%s", err, kiss.Format(m))
		}
		if len(back.Trans) != len(m.Trans) || back.NumStates() != m.NumStates() {
			t.Fatalf("round trip changed shape: %d/%d transitions, %d/%d states",
				len(back.Trans), len(m.Trans), back.NumStates(), m.NumStates())
		}
	})
}

// FuzzVerify pairs arbitrary parsed constraint sets with arbitrary code
// assignments: the oracle must never panic, and every violation it reports
// must reference the set it was handed (indices in range, kinds known).
func FuzzVerify(f *testing.F) {
	f.Add("symbols a b c\nface a b\n", uint8(2), []byte{0, 1, 2})
	f.Add("symbols a b c d\ndom a > b\ndisj c = a | b\n", uint8(3), []byte{5, 1, 4, 4})
	f.Add("symbols a b c\nextdisj a = b & c\ndist2 a b\nnonface a b\n", uint8(2), []byte{0, 3, 1})
	f.Fuzz(func(t *testing.T, text string, bits uint8, raw []byte) {
		if len(text) > 2048 || len(raw) > 64 {
			return
		}
		cs, err := constraint.Parse(strings.NewReader(text))
		if err != nil || cs.N() > 16 {
			return
		}
		b := int(bits % 16)
		codes := make([]hypercube.Code, cs.N())
		for i := range codes {
			if i < len(raw) {
				codes[i] = hypercube.Code(raw[i]) & (1<<uint(b) - 1)
			}
		}
		enc := core.NewEncoding(cs.Syms, b, codes)
		for _, v := range core.Verify(cs, enc) {
			if v.Kind == "" {
				t.Fatalf("violation with empty kind: %+v", v)
			}
		}
	})
}

// FuzzDecompose drives the connected-component solver over generated
// multi-component instances: every assembled encoding must be
// Verify-clean, and because multi-component witnesses sit at the
// monolithic minimum width, the decomposed solve must match that cost
// exactly — concatenation is not allowed to waste bits on these
// instances. Small universes additionally run the full cross-solver
// matrix (including the decomposed-vs-monolithic invariants).
func FuzzDecompose(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(0))
	f.Add(int64(1336), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, kByte uint8) {
		cfg := gen.DefaultConfig(6)
		cfg.Components = 2 + int(kByte%2) // 2 or 3 components
		inst := gen.Random(seed, cfg)
		cs, witness := inst.Set, inst.Witness

		ctx := context.Background()
		dres, err := decomp.ExactEncodeCtx(ctx, cs, core.ExactOptions{
			Parallelism: par.Parallelism{Workers: 1, TimeLimit: 5 * time.Second},
		})
		if err != nil {
			t.Fatalf("seed %d k %d: decomposed solve failed on a witnessed instance: %v\n%s",
				seed, cfg.Components, err, cs)
		}
		if v := core.Verify(cs, dres.Encoding); len(v) != 0 {
			t.Fatalf("seed %d k %d: assembled encoding fails the oracle: %v\n%s\n%s",
				seed, cfg.Components, v, cs, dres.Encoding)
		}
		// Cost agreement: when every generated group stayed whole (the
		// generator redraws toward this, but a constraint-starved group
		// can still split), the aligned layout is tight and the
		// decomposed width must equal the witness's monolithic minimum.
		// A split group legitimately costs a slack bit — but then the
		// result must not claim optimality at a width the witness beats.
		fullGroups := decomp.Count(cs) == cfg.Components
		if fullGroups && dres.Encoding.Bits != witness.Bits {
			t.Fatalf("seed %d k %d: decomposed used %d bits, witness (monolithic minimum) uses %d\n%s",
				seed, cfg.Components, dres.Encoding.Bits, witness.Bits, cs)
		}
		if dres.Optimal && dres.Encoding.Bits != witness.Bits {
			t.Fatalf("seed %d k %d: optimality claimed at %d bits but the witness uses %d\n%s",
				seed, cfg.Components, dres.Encoding.Bits, witness.Bits, cs)
		}

		// Small instances afford the monolithic solvers too: run the whole
		// invariant matrix, witness attached.
		if fuzzable(cs) {
			rep := CheckSet(ctx, cs, witness, fuzzOpts())
			if !rep.OK() {
				t.Fatalf("seed %d k %d: invariant violations:\n%s\nset:\n%s",
					seed, cfg.Components, rep.String(), cs)
			}
		}
	})
}
