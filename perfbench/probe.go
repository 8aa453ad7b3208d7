package main

import (
	"math/rand/v2"
	"time"
)

// The benchmark runs on small virtual machines that share a physical host.
// There, the same code's speed drifts 10-30 % over minutes as neighbours
// load the shared cache and the clock, which is slower than any one run
// and so survives every median the benchmark takes. The probe tracks that
// drift: fixed work that does not depend on the program, timed between
// set-ups and repetitions. Each run scales its times by the probe's median
// against probeNominal, the probe's median on the reference host, so a
// change to the program moves the figures and a change of host speed
// mostly does not.
const (
	// probeNominal is the probe's median time, in seconds, on the
	// reference host: a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest,
	// Go 1.24. It only fixes the scale of the figures; do not change it.
	probeNominal = 0.11

	probeSpins = 20_000_000 // dependent floating-point steps: the core clock
	probeSlots = 2 << 20    // 16 MiB of int64: past L2, inside the shared L3
	probeSteps = 300_000    // dependent loads through the ring
	// probeEvery is the least repetition time between two timed-phase
	// probes, so short repetitions are not half probe.
	probeEvery = time.Second
)

// probe holds the ring the probe walks and the probe times of one run.
type probe struct {
	next  []int64 // a single cycle through every slot, in random order
	times []float64
	sink  int64
}

func newProbe() *probe {
	// Sattolo's shuffle of the identity gives one cycle of full length,
	// so each load depends on the last and the walk never settles.
	next := make([]int64, probeSlots)
	for i := range next {
		next[i] = int64(i)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := len(next) - 1; i > 0; i-- {
		j := r.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	return &probe{next: next}
}

// run times one probe and records it.
func (p *probe) run() {
	start := time.Now()
	x := 1.0
	for i := 0; i < probeSpins; i++ {
		x = x*1.0000001 + 1e-9
	}
	at := int64(x) % probeSlots // starts the walk from the chain's result, so neither is dropped
	for i := 0; i < probeSteps; i++ {
		at = p.next[at]
	}
	p.sink += at
	p.times = append(p.times, time.Since(start).Seconds())
}

// slowdown is how much slower than the reference host this run's host
// was: the median probe time over probeNominal. A run divides its times
// by it and multiplies its rates by it.
func (p *probe) slowdown() float64 {
	return median(p.times) / probeNominal
}
