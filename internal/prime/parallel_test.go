package prime

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/dichotomy"
	"repro/internal/par"
)

// randomSeeds builds a list of random seed dichotomies over n symbols.
func randomSeeds(rng *rand.Rand, count, n int) []dichotomy.D {
	seeds := make([]dichotomy.D, 0, count)
	for len(seeds) < count {
		var d dichotomy.D
		for s := 0; s < n; s++ {
			switch rng.Intn(3) {
			case 0:
				d.L.Add(s)
			case 1:
				d.R.Add(s)
			}
		}
		if !d.L.IsEmpty() && !d.R.IsEmpty() {
			seeds = append(seeds, d)
		}
	}
	return seeds
}

// TestParallelMatchesSequential asserts that the parallel Bron–Kerbosch
// engine returns exactly the sequential output — same primes, same order —
// across randomized instances and worker counts. Run under -race this also
// exercises the engine's synchronization.
// forceParallel lowers the adaptive sequential-fallback cutoff for the
// duration of a test so small instances still exercise the parallel engine.
func forceParallel(t *testing.T) {
	t.Helper()
	old := parallelCutoffSeeds
	parallelCutoffSeeds = 0
	t.Cleanup(func() { parallelCutoffSeeds = old })
}

func TestParallelMatchesSequential(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		seeds := randomSeeds(rng, 8+rng.Intn(25), 6+rng.Intn(8))
		seq, err := GenerateSetsCtx(context.Background(), seeds, Options{Parallelism: par.Workers(1)})
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := GenerateSetsCtx(context.Background(), seeds, Options{Parallelism: par.Workers(workers)})
			if err != nil {
				t.Fatalf("trial %d workers=%d: parallel: %v", trial, workers, err)
			}
			if len(par) != len(seq) {
				t.Fatalf("trial %d workers=%d: %d primes, sequential has %d",
					trial, workers, len(par), len(seq))
			}
			for i := range seq {
				if !par[i].Equal(seq[i]) {
					t.Fatalf("trial %d workers=%d: prime %d differs: %v vs %v",
						trial, workers, i, par[i], seq[i])
				}
			}
		}
	}
}

// TestAdaptiveThresholdDeterminism pins the sequential-fallback gate: with
// the cutoff set between two seed counts, the small instance takes the
// transparent sequential path and the large one the parallel engine, and
// both return the identical prime list in identical order across
// Workers(0), Workers(1) and Workers(8). Run under -race this covers the
// fallback path's (absence of) synchronization.
func TestAdaptiveThresholdDeterminism(t *testing.T) {
	old := parallelCutoffSeeds
	parallelCutoffSeeds = 20
	t.Cleanup(func() { parallelCutoffSeeds = old })

	rng := rand.New(rand.NewSource(23))
	for i, count := range []int{12, 30} { // straddles the 20-seed cutoff
		seeds := randomSeeds(rng, count, 8)
		var ref []bitset.Set
		for j, workers := range []int{1, 0, 8} {
			sets, err := GenerateSetsCtx(context.Background(), seeds, Options{Parallelism: par.Workers(workers)})
			if err != nil {
				t.Fatalf("instance %d workers=%d: %v", i, workers, err)
			}
			if j == 0 {
				ref = sets
				continue
			}
			if len(sets) != len(ref) {
				t.Fatalf("instance %d workers=%d: %d primes, want %d", i, workers, len(sets), len(ref))
			}
			for k := range ref {
				if !sets[k].Equal(ref[k]) {
					t.Fatalf("instance %d workers=%d: prime %d differs", i, workers, k)
				}
			}
		}
	}
}

// TestParallelLimit asserts ErrLimit fires in the parallel engine under the
// same condition as the sequential one: total maximal compatibles > limit.
func TestParallelLimit(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(11))
	seeds := randomSeeds(rng, 30, 10)
	all, err := GenerateSetsCtx(context.Background(), seeds, Options{Parallelism: par.Workers(1)})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if len(all) < 3 {
		t.Skip("instance too small to exercise the limit")
	}
	for _, workers := range []int{1, 4} {
		if _, err := GenerateSetsCtx(context.Background(), seeds, Options{Parallelism: par.Workers(workers), Limit: len(all) - 1}); !errors.Is(err, ErrLimit) {
			t.Fatalf("workers=%d limit=%d: got %v, want ErrLimit", workers, len(all)-1, err)
		}
		if got, err := GenerateSetsCtx(context.Background(), seeds, Options{Parallelism: par.Workers(workers), Limit: len(all)}); err != nil || len(got) != len(all) {
			t.Fatalf("workers=%d limit=%d: got %d primes, err %v", workers, len(all), len(got), err)
		}
	}
}

// TestCancellation asserts that an already-canceled context aborts both
// engines with a wrapped context.Canceled, and that TimeLimit surfaces as
// ErrTimeout wrapping context.DeadlineExceeded.
func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seeds := randomSeeds(rng, 40, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []Engine{BronKerbosch, CSPS} {
		_, err := GenerateSetsCtx(ctx, seeds, Options{Engine: engine})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %d: canceled ctx: got %v, want context.Canceled", engine, err)
		}
	}
	_, err := GenerateSetsCtx(context.Background(), seeds, Options{Parallelism: par.Budget(time.Nanosecond)})
	if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TimeLimit: got %v", err)
	}
	if errors.Is(err, ErrTimeout) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrTimeout does not wrap context.DeadlineExceeded")
	}
}
