package main

import (
	"fmt"
	"math"
	"time"
)

// The 2-core reference machine is a share of a busy host, and its speed
// drifts by a third and more within minutes: every workload slows down and
// speeds up with it, together. A run therefore also times a fixed piece of
// reference work, interleaved with its own, and reports its timing metrics
// at the reference's nominal speed:
//
//	reported = measured × (refNominalMS / median reference time in the run)^refElasticity
//
// The reference work is the benchmark's own code and calls nothing in the
// repository, so a change to the program moves the measured times and not
// the reference. It hashes, allocates and grows maps and slices, as the
// encoders do; a pure arithmetic loop follows the host's drift less well.

// refNominalMS is the reference work's time on the reference machine in a
// calm spell. It only sets the scale of the reported times: any constant
// gives the same ratio between two commits.
const refNominalMS = 0.7

// refElasticity is how much of the reference's slow-down the workloads
// share. Over ten runs of each workload while the host's speed nearly
// halved, the log-log slope of the measured pass time against the
// reference time was 0.87 on exact and 0.74–0.84 on synth and serve; with
// 1 the scaling over-corrects.
const refElasticity = 0.85

// refSink keeps the compiler from dropping the reference work.
var refSink int

// refWork is the reference work: about 0.7 ms on the reference machine.
func refWork() int {
	m := map[string][]int{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprint(i % 700)
		m[k] = append(m[k], i)
	}
	return len(m)
}

// refClock collects the reference work's times in one phase of a run.
type refClock struct {
	ms []float64
}

// sample times the reference work once.
func (r *refClock) sample() {
	t0 := time.Now()
	refSink += refWork()
	r.ms = append(r.ms, float64(time.Since(t0))/1e6)
}

// scale is the factor that brings times measured in the phase to the
// reference's nominal speed; 1 when nothing was sampled.
func (r *refClock) scale() float64 {
	if m := median(r.ms); m > 0 {
		return math.Pow(refNominalMS/m, refElasticity)
	}
	return 1
}
