package par

import (
	"runtime"
	"testing"
	"time"
)

func TestWorkerCount(t *testing.T) {
	if got := Workers(4).WorkerCount(); got != 4 {
		t.Fatalf("Workers(4).WorkerCount() = %d", got)
	}
	if got := Workers(0).WorkerCount(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0).WorkerCount() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestWorkersFor pins the adaptive threshold contract: below the cutoff the
// sequential path (1) is forced no matter how many workers were requested;
// at or above it the requested count passes through unchanged.
func TestWorkersFor(t *testing.T) {
	cases := []struct {
		workers, size, cutoff, want int
	}{
		{8, 10, 100, 1},  // small instance: forced sequential
		{8, 100, 100, 8}, // exactly at the cutoff: parallel
		{8, 500, 100, 8}, // large instance: parallel
		{1, 500, 100, 1}, // explicit sequential stays sequential
		{8, 0, 1, 1},     // empty instance below any positive cutoff
		{8, 5, 0, 8},     // zero cutoff disables the gate
	}
	for _, c := range cases {
		if got := Workers(c.workers).WorkersFor(c.size, c.cutoff); got != c.want {
			t.Fatalf("Workers(%d).WorkersFor(%d, %d) = %d, want %d",
				c.workers, c.size, c.cutoff, got, c.want)
		}
	}
	if got := Workers(0).WorkersFor(1000, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0).WorkersFor above cutoff = %d, want GOMAXPROCS", got)
	}
	if got := Workers(0).WorkersFor(10, 100); got != 1 {
		t.Fatalf("Workers(0).WorkersFor below cutoff = %d, want 1", got)
	}
}

func TestFillFrom(t *testing.T) {
	def := Parallelism{Workers: 4, TimeLimit: time.Second}
	if got := (Parallelism{}).FillFrom(def); got != def {
		t.Fatalf("FillFrom zero = %+v, want %+v", got, def)
	}
	explicit := Parallelism{Workers: 2, TimeLimit: time.Minute}
	if got := explicit.FillFrom(def); got != explicit {
		t.Fatalf("FillFrom explicit = %+v, want %+v", got, explicit)
	}
}
