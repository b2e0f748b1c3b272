package encodingapi_test

import (
	"context"
	"errors"
	"testing"

	"repro/encodingapi"
	"repro/internal/core"
	"repro/internal/heuristic"
)

// TestFacadeMatchesLibrary proves the facade is a pure re-export: results
// through encodingapi are byte-identical to the internal paths.
func TestFacadeMatchesLibrary(t *testing.T) {
	const text = "face a b\nface b c\ndom a > d\n"
	cs := encodingapi.MustParse(text)

	if !encodingapi.Feasible(cs) {
		t.Fatalf("expected feasible")
	}

	res, err := encodingapi.ExactEncode(context.Background(), cs, encodingapi.ExactOptions{})
	if err != nil {
		t.Fatalf("ExactEncode: %v", err)
	}
	want, err := core.ExactEncodeCtx(context.Background(), encodingapi.MustParse(text), core.ExactOptions{})
	if err != nil {
		t.Fatalf("core.ExactEncodeCtx: %v", err)
	}
	if res.Encoding.String() != want.Encoding.String() {
		t.Fatalf("facade encoding differs from library path:\n%s\nvs\n%s", res.Encoding, want.Encoding)
	}
	if v := encodingapi.Verify(cs, res.Encoding); len(v) != 0 {
		t.Fatalf("verification failed: %v", v)
	}

	h, err := encodingapi.HeuristicEncode(context.Background(), cs, encodingapi.HeuristicOptions{Metric: encodingapi.Cubes})
	if err != nil {
		t.Fatalf("HeuristicEncode: %v", err)
	}
	hw, err := heuristic.EncodeCtx(context.Background(), encodingapi.MustParse(text), heuristic.Options{Metric: encodingapi.Cubes})
	if err != nil {
		t.Fatalf("heuristic.EncodeCtx: %v", err)
	}
	if h.Encoding.String() != hw.Encoding.String() {
		t.Fatalf("facade heuristic differs from library path")
	}
}

func TestFacadeInfeasible(t *testing.T) {
	// Four symbols forced pairwise-adjacent by faces cannot all be
	// mutually adjacent on a hypercube with uniqueness: use a known
	// infeasible mix instead — a dominance cycle.
	cs := encodingapi.NewSet(nil)
	cs.AddDominance("a", "b")
	cs.AddDominance("b", "a")
	if encodingapi.Feasible(cs) {
		t.Fatalf("dominance cycle reported feasible")
	}
	_, err := encodingapi.ExactEncode(context.Background(), cs, encodingapi.ExactOptions{})
	if !errors.Is(err, encodingapi.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestFacadeHashAndMetrics(t *testing.T) {
	a := encodingapi.CanonicalHashSet(encodingapi.MustParse("face a b\n"))
	b := encodingapi.CanonicalHashSet(encodingapi.MustParse("face  a , b\n"))
	if a != b || a.IsZero() {
		t.Fatalf("hash not canonical over formatting: %v vs %v", a, b)
	}
	for name, want := range map[string]encodingapi.Metric{
		"violations": encodingapi.Violations,
		"cubes":      encodingapi.Cubes,
		"literals":   encodingapi.Literals,
	} {
		got, ok := encodingapi.ParseMetric(name)
		if !ok || got != want {
			t.Fatalf("ParseMetric(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := encodingapi.ParseMetric("bogus"); ok {
		t.Fatalf("ParseMetric accepted bogus metric")
	}
}

func TestFacadeTypedInfeasible(t *testing.T) {
	// A dominance cycle buried among harmless constraints: the typed error
	// must isolate the two-constraint cycle as the minimal conflict.
	cs := encodingapi.MustParse(`
		symbols a b c d e
		face c d
		face d e
		dom a > b
		dom b > a
	`)
	_, err := encodingapi.ExactEncode(context.Background(), cs, encodingapi.ExactOptions{})
	ie, ok := encodingapi.AsInfeasible(err)
	if !ok {
		t.Fatalf("want a typed *InfeasibleError, got %v", err)
	}
	if !errors.Is(err, encodingapi.ErrInfeasible) {
		t.Fatalf("typed error must still match ErrInfeasible")
	}
	if ie.Conflict == nil {
		t.Fatalf("small instance must carry a minimized conflict subset")
	}
	if encodingapi.Feasible(ie.Conflict) {
		t.Fatalf("reported conflict subset is feasible:\n%s", ie.Conflict)
	}
	if got := len(ie.Conflict.Dominances); got != 2 || len(ie.Conflict.Faces) != 0 {
		t.Fatalf("minimal conflict should be exactly the dominance cycle, got:\n%s", ie.Conflict)
	}
}
