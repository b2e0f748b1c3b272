package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/constraint"
	"repro/internal/par"
)

// randomFaceSet builds a random face-constraint instance.
func randomFaceSet(rng *rand.Rand, n int) *constraint.Set {
	cs := constraint.NewSet(nil)
	for i := 0; i < n; i++ {
		cs.Syms.Intern(string(rune('a' + i)))
	}
	for k := 0; k < 2+rng.Intn(3); k++ {
		var m bitset.Set
		for s := 0; s < n; s++ {
			if rng.Intn(3) == 0 {
				m.Add(s)
			}
		}
		if m.Len() >= 2 && m.Len() < n {
			cs.Faces = append(cs.Faces, constraint.Face{Members: m})
		}
	}
	return cs
}

// TestExactEncodeWorkersDeterministic asserts the full exact pipeline —
// parallel prime generation and parallel covering search — returns the
// identical encoding for any worker count.
func TestExactEncodeWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		cs := randomFaceSet(rng, 5+rng.Intn(5))
		seq, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Parallelism: par.Workers(1)})
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, workers := range []int{2, 4} {
			par, err := ExactEncodeCtx(context.Background(), cs, ExactOptions{Parallelism: par.Workers(workers)})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(par.Encoding.Codes, seq.Encoding.Codes) {
				t.Fatalf("trial %d workers=%d: codes %v != sequential %v",
					trial, workers, par.Encoding.Codes, seq.Encoding.Codes)
			}
			if par.Optimal != seq.Optimal || len(par.Primes) != len(seq.Primes) {
				t.Fatalf("trial %d workers=%d: pipeline metadata diverged", trial, workers)
			}
		}
	}
}

// TestExactEncodeCanceled asserts a pre-canceled context aborts the
// pipeline with a wrapped context.Canceled from prime generation.
func TestExactEncodeCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	cs := randomFaceSet(rng, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExactEncodeCtx(ctx, cs, ExactOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want wrapped context.Canceled", err)
	}
}
