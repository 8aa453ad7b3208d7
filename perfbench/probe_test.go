package main

import "testing"

// The probe's loads only stay dependent and spread over the whole ring if
// the ring is one cycle through every slot.
func TestProbeRingIsOneCycle(t *testing.T) {
	p := newProbe()
	at, n := p.next[0], 1
	for at != 0 {
		at = p.next[at]
		n++
		if n > probeSlots {
			t.Fatalf("no return to slot 0 within %d steps", probeSlots)
		}
	}
	if n != probeSlots {
		t.Fatalf("cycle through slot 0 has %d slots, want %d", n, probeSlots)
	}
}

func TestProbeSlowdown(t *testing.T) {
	p := &probe{times: []float64{0.3, probeNominal * 2, 0.1}}
	if got := p.slowdown(); got != 2 {
		t.Fatalf("slowdown %v, want the median over probeNominal, 2", got)
	}
}
