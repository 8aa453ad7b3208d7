// The hybrid and mmWave-only slot models: the corpus-scale counterparts
// of core.Run's RunOptions.Hybrid. The FSO side is the chaos slot model
// unchanged; the mmWave side is a two-constant caricature of
// baseline.MmWaveLink (a 3° beam shrugs off every head speed in the
// corpus, so only body blockage and its short MAC-level recovery matter);
// the policy.Controller between them is the same state machine the
// hardware path drives, fed one verdict per slot.
package sim

import (
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/policy"
	"cyclops/internal/trace"
)

// The slot-model mmWave link and the hybrid arm's delivered rates. The
// mmWave path counts as body-blocked at fault.BlockDB of physical
// obstruction; the haze component of a fault schedule never blocks it —
// fog is transparent at 60 GHz.
const (
	// mmWavePeakGbps is the delivered rate while the mmWave link is up:
	// baseline.NewMmWave's 802.11ad single-carrier peak. The slot model
	// does not grade the MCS ladder — a beam this wide is either carrying
	// or blocked.
	mmWavePeakGbps = 4.6
	// mmWaveRecovery is the MAC-level reconnect time after a blockage
	// clears (no optical re-lock; beam retraining plus association): the
	// 30 ms stream recovery baseline.Run models.
	mmWaveRecovery = 30 * time.Millisecond
	// primaryGoodputGbps is the hybrid arm's delivered rate while the FSO
	// side carries: the 25G transceiver's optimal goodput.
	primaryGoodputGbps = 23.5
)

// mmSlotState is the slot-model mmWave link: blocked while the physical
// obstruction is at depth, then down for the MAC recovery tail.
type mmSlotState struct {
	recoverUntil time.Duration
}

// step advances one slot and reports whether the mmWave link is up.
func (m *mmSlotState) step(at time.Duration, occlDB float64) bool {
	if occlDB >= fault.BlockDB {
		m.recoverUntil = at + mmWaveRecovery
		return false
	}
	return at >= m.recoverUntil
}

// frameTally is the delivered-stream availability count the hybrid and
// mmWave arms share: one verdict per slot, folded into the 30-slot frame
// histogram with its trailing partial frame.
type frameTally struct {
	slots, offSlots       int
	slotInFrame, frameOff int
	hist                  [31]int
}

// add counts one slot.
func (f *frameTally) add(off bool) {
	f.slots++
	if off {
		f.offSlots++
		f.frameOff++
	}
	f.slotInFrame++
	if f.slotInFrame == 30 {
		f.hist[f.frameOff]++
		f.slotInFrame, f.frameOff = 0, 0
	}
}

// finish closes the trailing partial frame and writes OffSlots,
// FrameHistogram and OnFraction into r. Call it once, after the last add.
func (f *frameTally) finish(r *TraceResult) {
	if f.slotInFrame > 0 {
		f.hist[f.frameOff]++
	}
	r.OffSlots = f.offSlots
	r.FrameHistogram = f.hist
	if f.slots > 0 {
		r.OnFraction = 1 - float64(f.offSlots)/float64(f.slots)
	}
}

// SimulateTraceHybrid runs the hybrid link policy over one trace: the FSO
// chaos slot model and the mmWave slot link advance together, the policy
// controller watches the FSO verdict slot by slot, and the returned
// result's availability fields (OffSlots, OnFraction, FrameHistogram) are
// rebuilt for the *delivered* stream — whichever medium the policy had
// carrying each slot. Outages and BlockedSlots keep the FSO side's
// bookkeeping (the episodes the policy routed around), as do the
// cyclops_sim_* and cyclops_outage_* metrics recorded into reg; the
// delivered story is in the result and the cyclops_policy_* instruments.
func SimulateTraceHybrid(tr trace.Trace, p ChaosParams, sched *fault.Schedule, reg *obs.Registry) ChaosTraceResult {
	ctl := policy.New(policy.NewMetrics(reg))
	var mm mmSlotState

	var tally frameTally
	secondarySlots := 0
	var goodputSum float64

	res := SimulateTraceChaos(tr, p, sched, reg, func(slot, n int, off bool) {
		for ; n > 0; slot, n = slot+1, n-1 {
			at := time.Duration(slot) * p.Slot
			var fs fault.State
			if !sched.Empty() {
				fs = sched.At(at)
			}
			mmUp := mm.step(at, fs.AttenDB-fs.HazeDB)
			st := ctl.Observe(at, p.Slot, !off)

			deliveredOff := off
			if st.OnSecondary() {
				secondarySlots++
				deliveredOff = !mmUp
				if mmUp {
					goodputSum += mmWavePeakGbps
				}
			} else if !off {
				goodputSum += primaryGoodputGbps
			}
			tally.add(deliveredOff)
		}
	})
	if res.Slots == 0 {
		return res
	}
	tally.finish(&res.TraceResult)
	res.MeanGoodputGbps = goodputSum / float64(res.Slots)
	res.Failovers = ctl.Failovers()
	res.Readmits = ctl.Readmits()
	res.SecondarySlots = secondarySlots
	res.MinSecondaryDwell = ctl.MinSecondaryDwell()
	return res
}

// SimulateTraceMmWave runs the mmWave-only arm over one trace: no FSO
// model at all — the slot link is up except while a physical obstruction
// (the fault schedule's non-haze attenuation) is at blocking depth or its
// MAC recovery tail is running. Misalignment never costs a slot (a 3°
// beam tolerates the whole corpus), so every off slot is a BlockedSlot
// and every blockage episode an Outage. Records cyclops_sim_* into reg.
func SimulateTraceMmWave(tr trace.Trace, p ChaosParams, sched *fault.Schedule, reg *obs.Registry) ChaosTraceResult {
	res := ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}
	var mm mmSlotState
	var tally frameTally
	end := tr.Duration()
	wasBlocked := false
	var goodputSum float64
	for at := time.Duration(0); at < end; at += p.Slot {
		var fs fault.State
		if !sched.Empty() {
			fs = sched.At(at)
		}
		occl := fs.AttenDB - fs.HazeDB
		up := mm.step(at, occl)
		if blocked := occl >= fault.BlockDB; blocked {
			if !wasBlocked {
				res.Outages++
			}
			wasBlocked = true
		} else {
			wasBlocked = false
		}

		if up {
			goodputSum += mmWavePeakGbps
		}
		tally.add(!up)
	}
	tally.finish(&res.TraceResult)
	res.Slots = tally.slots
	res.BlockedSlots = tally.offSlots
	if res.Slots > 0 {
		res.MeanGoodputGbps = goodputSum / float64(res.Slots)
	}
	recordTrace(reg, res.Slots, res.OffSlots, res.OnFraction)
	return res
}
