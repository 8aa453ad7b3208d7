// Traces reproduces the §5.4 study: simulate the 25G prototype over 500
// one-minute head-motion viewing traces and report link availability — the
// Fig 16 result — plus a close-up of the best and worst trace.
package main

import (
	"fmt"
	"sort"
)

import "cyclops"

func main() {
	fmt.Println("generating 500 viewing traces and simulating 1 ms timeslots...")
	r := cyclops.Fig16(9)

	fmt.Printf("\noperational: mean %.2f%% of slots (paper: 98.6%%)\n",
		r.Corpus.MeanOnFraction*100)
	fmt.Printf("per-trace range: %.2f%% - %.2f%% (paper: 95-99.98%%)\n",
		r.Corpus.MinOnFraction*100, r.Corpus.MaxOnFraction*100)
	fmt.Printf("effective bandwidth: %.1f Gbps of the 23.5 Gbps optimal (paper: ≈23)\n",
		r.EffectiveGbps)
	fmt.Printf("off-slots falling in lightly-affected frames: %.0f%% (paper: >60%%)\n\n",
		r.ScatteredFraction*100)

	// Close-up: the distribution's two ends.
	per := make([]cyclops.TraceResult, len(r.Corpus.PerTrace))
	for i, t := range r.Corpus.PerTrace {
		per[i] = t.TraceResult
	}
	sort.Slice(per, func(i, j int) bool { return per[i].OnFraction < per[j].OnFraction })
	worst, best := per[0], per[len(per)-1]
	fmt.Printf("worst trace %-16s %.2f%% on, %4d off-slots\n", worst.ID, worst.OnFraction*100, worst.OffSlots)
	fmt.Printf("best trace  %-16s %.2f%% on, %4d off-slots\n", best.ID, best.OnFraction*100, best.OffSlots)

	xs, ys := r.Corpus.DisconnectionCDF(10)
	fmt.Println("\nCDF of per-trace disconnected percentage (Fig 16):")
	for i := range xs {
		bar := ""
		for k := 0; k < int(ys[i]*40); k++ {
			bar += "#"
		}
		fmt.Printf("  ≤%5.2f%%  %5.1f%%  %s\n", xs[i], ys[i]*100, bar)
	}
}
