package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		value, pct float64
	}{
		// 2000 samples: p99 is rank 1980 with 20 beyond it.
		{2000, 1980, 99},
		// 1000 samples: p99 is rank 990, exactly 10 beyond.
		{1000, 990, 99},
		// 500 samples: p99 would leave 5 beyond, so rank 490 (p98).
		{500, 490, 98},
		// 100 samples: rank 90 (p90).
		{100, 90, 90},
		// 21 samples: rank 11, the first rank past the median.
		{21, 11, 100 * 11.0 / 21},
		// Too few samples for any tail: the median.
		{15, 8, 50},
	}
	for _, c := range cases {
		v, p := tail(seq(c.n))
		if v != c.value || math.Abs(p-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%.3f, want %v at p%.3f", c.n, v, p, c.value, c.pct)
		}
		// The rule itself: at least ten samples lie beyond the value.
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if p > 50 && beyond < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestRefClockScalesToNominal(t *testing.T) {
	var r refClock
	if r.scale() != 1 {
		t.Fatal("an unsampled clock must not scale")
	}
	r.ms = []float64{2 * refNominalMS, 4 * refNominalMS, 3 * refNominalMS}
	if s, want := r.scale(), math.Pow(3, -refElasticity); math.Abs(s-want) > 1e-12 {
		t.Fatalf("scale = %v, want 3^-%v: the median reference time is three times nominal", s, refElasticity)
	}
	r.sample()
	if len(r.ms) != 4 || r.ms[3] <= 0 {
		t.Fatalf("sample recorded %v", r.ms)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean = %v", g)
	}
	if median(nil) != 0 || geomean(nil) != 0 {
		t.Error("empty inputs must give 0")
	}
}
