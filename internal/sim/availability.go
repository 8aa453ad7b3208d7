// Package sim implements the §5.4 trace-driven availability simulation:
// the paper's own methodology for evaluating the 25 Gbps prototype against
// 500 one-minute head-motion traces without wearing the (too bulky) rig.
//
// The model divides time into 1 ms slots. Whenever a head position report
// arrives (every ~10 ms in the dataset), the TP mechanism realigns within
// the realignment latency, leaving the link with the TP residual error;
// between reports the terminal drifts laterally and angularly at the rate
// implied by consecutive reports. A slot is disconnected when the total
// lateral or angular offset exceeds the link's movement tolerance.
package sim

import (
	"math"
	"math/rand"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// AvailabilityParams are the §5.4 simulation constants.
type AvailabilityParams struct {
	// Slot is the simulation timeslot (1 ms in the paper).
	Slot time.Duration
	// RealignLatency is the TP latency after each report (1–2 ms; the
	// paper's simulation uses the upper end conservatively).
	RealignLatency time.Duration
	// LateralTolerance and AngularTolerance are the link's movement
	// tolerances (6 mm / 8.73 mrad for the 25G design).
	LateralTolerance float64 // meters
	AngularTolerance float64 // radians
	// TPLateralError and TPAngularError are the residual misalignments
	// right after a realignment (the combined model errors of Table 2:
	// 4.54 mm lateral, 4.54 mm over the 1.75 m link ≈ 2.6 mrad angular).
	TPLateralError float64 // meters
	TPAngularError float64 // radians
}

// Paper25G returns the §5.4 constants exactly as the paper states them:
// 8.73 mrad / 6 mm tolerances, TP error 4.54 mm and 4.54/1750 rad, 1–2 ms
// realignment (we use 2 ms).
func Paper25G() AvailabilityParams {
	return AvailabilityParams{
		Slot:             time.Millisecond,
		RealignLatency:   2 * time.Millisecond,
		LateralTolerance: 6e-3,
		AngularTolerance: 8.73e-3,
		TPLateralError:   4.54e-3,
		TPAngularError:   4.54e-3 / 1.75,
	}
}

// TraceResult is the per-trace outcome.
type TraceResult struct {
	ID         string
	Slots      int
	OffSlots   int
	OnFraction float64
	// FrameHistogram buckets 30-slot frames by their off-slot count:
	// FrameHistogram[k] frames had exactly k off slots (k in 0..30).
	FrameHistogram [31]int
}

// ScatteredOffFraction returns the fraction of off-slots that fall in
// frames with fewer than threshold off-slots — the paper's user-experience
// metric (">60% of off-timeslots occur in frames with less than 10").
func (r TraceResult) ScatteredOffFraction(threshold int) float64 {
	if r.OffSlots == 0 {
		return 0
	}
	var scattered int
	for k := 0; k < threshold && k < len(r.FrameHistogram); k++ {
		scattered += k * r.FrameHistogram[k]
	}
	return float64(scattered) / float64(r.OffSlots)
}

// simBlock is the number of reports whose drift steps SimulateTrace
// precomputes per batch (4 KB of stack). See the block comment at the
// fill site for why batching pays.
const simBlock = 256

// SimulateTrace runs the §5.4 slot model over one trace: the fault-free
// SimulateTraceChaos, with no metrics recorded.
func SimulateTrace(tr trace.Trace, p AvailabilityParams) TraceResult {
	return SimulateTraceChaos(tr, ChaosParams{AvailabilityParams: p}, nil, nil, nil).TraceResult
}

// SimulateTraceChaos runs the slot model over one trace with the given
// fault schedule injected. The drift/realign machinery is the §5.4 model;
// on top of it:
//
//   - an occlusion window at or above BlockAttenDB severs the link for its
//     duration plus the Relock tail — those slots are off regardless of
//     pointing state;
//   - a tracker blackout (or an injected solver divergence) at a report's
//     arrival swallows that report: no realignment is scheduled and the
//     drift rates keep their last value;
//   - a stuck galvo at a realignment's completion turns it into a no-op —
//     the mirrors never moved, so the accumulated offsets stand.
//
// A nil or empty schedule reproduces the clean model exactly. Outage
// metrics are recorded into reg under the same names the hardware
// supervisor uses (cyclops_outage_total, cyclops_reacquire_seconds), so
// both fault paths expose identically.
//
// sink, when non-nil, receives every slot's final connectivity verdict
// (off covers both misalignment and blocking) as runs: sink(slot, n, off)
// says slots [slot, slot+n) all had verdict off. Runs arrive in slot
// order and tile the trace; each off slot is a run of its own and the on
// slots between them arrive as one run. The hybrid arm and the arena
// engine expand them to replay per-slot connectivity through their own
// passes.
func SimulateTraceChaos(tr trace.Trace, p ChaosParams, sched *fault.Schedule, reg *obs.Registry, sink func(slot, n int, off bool)) ChaosTraceResult {
	res := ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}

	// Current drift state: offsets at the start of the current slot.
	lat := p.TPLateralError
	ang := p.TPAngularError

	// Drift rates between the last pair of reports (per second), and the
	// per-slot increments they imply. The increments are computed once
	// when the rates change — rate*slotSec is the identical product the
	// per-slot multiply used to produce, so the accumulated offsets stay
	// bit-identical while the 1 ms loop sheds two multiplies (and the
	// Duration.Seconds conversion, ~5 % of the corpus run) per slot.
	var latStep, angStep float64
	slotSec := p.Slot.Seconds()

	samples := tr.Samples
	nextReportIdx := 1
	var realignAt time.Duration = -1

	end := tr.Duration()
	frameOff := 0
	slotInFrame := 0
	slots, offSlots := 0, 0
	delivered := 0 // slots [0, delivered) have reached sink; the rest are on
	tolLat, tolAng := p.LateralTolerance, p.AngularTolerance

	// The per-report drift steps are pure functions of the sample pairs,
	// independent across reports, so they are precomputed in blocks of
	// simBlock reports ahead of the event loop. Batching keeps the
	// normalize→distance→angle chains (each a long serial float
	// dependency ending in an Acos polynomial) adjacent, letting the
	// out-of-order core overlap consecutive reports instead of paying
	// each chain's full latency between slot segments. Every step value
	// is computed by the same operations in the same order as the inline
	// form, so the accumulated offsets are bit-identical
	// (TestSimulateTraceMatchesReference).
	steps := driftSteps{
		lo: 1, hi: 1,
		slotSec: slotSec,
		prevN:   samples[0].Pose.Rot.Normalize(),
		lastGap: time.Duration(math.MinInt64),
	}

	arms := newFaultArms(&p, sched, reg)

	// The loop is event-driven (DESIGN.md §12): state changes happen only
	// at report arrivals, realignment completions and fault-window starts,
	// so between events the 1 ms slots run in a tight inner loop with
	// nothing but the connectivity check and the drift adds. Slots inside
	// a fault window or a re-lock tail, and the reacquire slot after one,
	// step one at a time through the full fault arms. Slot-for-slot this
	// visits the same states in the same order as the check-every-slot
	// reference (reference_test.go).
	for at := time.Duration(0); at < end; {
		stepping := at >= arms.horizon && arms.stepping(at)
		var fs fault.State
		if stepping {
			fs = sched.At(at)
		}

		// Report arrival: schedule a realignment and update drift
		// rates from the new report pair. Realignments pipeline: one
		// that was due to complete before a newer report arrives takes
		// effect first rather than being silently superseded (a
		// tracker faster than the realign latency must not starve the
		// mirrors). A blackout or divergence window swallows the report
		// entirely.
		for nextReportIdx < len(samples) && samples[nextReportIdx].At <= at {
			b := &samples[nextReportIdx]
			if realignAt >= 0 && b.At >= realignAt {
				if !fs.GalvoStuck {
					lat = p.TPLateralError
					ang = p.TPAngularError
				}
				realignAt = -1
			}
			if fs.TrackerBlackout || fs.SolverDiverge {
				nextReportIdx++
				continue
			}
			if nextReportIdx >= steps.hi {
				steps.fill(samples, nextReportIdx)
			}
			latStep = steps.lat[nextReportIdx-steps.lo]
			angStep = steps.ang[nextReportIdx-steps.lo]
			realignAt = b.At + p.RealignLatency
			nextReportIdx++
		}

		// Realignment completes: residual TP error only — unless the
		// mirrors are stuck, in which case the command lands on a dead
		// actuator and the offsets stand.
		if realignAt >= 0 && at >= realignAt {
			if !fs.GalvoStuck {
				lat = p.TPLateralError
				ang = p.TPAngularError
			}
			realignAt = -1
		}

		if stepping {
			blocked := arms.blocked(at, fs.AttenDB, &res)

			// Connectivity check for this slot.
			slots++
			off := blocked || lat > tolLat || ang > tolAng
			if off {
				offSlots++
				frameOff++
				if blocked {
					res.BlockedSlots++
				}
				if sink != nil {
					delivered = emitOff(sink, delivered, slots-1)
				}
			}
			slotInFrame++
			if slotInFrame == 30 {
				res.FrameHistogram[frameOff]++
				slotInFrame, frameOff = 0, 0
			}

			lat += latStep
			ang += angStep
			at += p.Slot
			continue
		}

		// Run slots up to (but not including) the next event. After the
		// event handling above, the next report and the next window
		// start strictly follow at, and any pending realignment
		// completes strictly after at, so the segment is never empty.
		limit := end
		if nextReportIdx < len(samples) && samples[nextReportIdx].At < limit {
			limit = samples[nextReportIdx].At
		}
		if realignAt >= 0 && realignAt < limit {
			limit = realignAt
		}
		limit = min(limit, arms.horizon)
		// k is the number of slots starting in [at, limit): delta and at
		// are non-negative, so delta − k·Slot is exactly delta mod Slot
		// and the multiply-compare spells the round-up without a second
		// hardware divide on the segment path.
		delta := limit - at
		k := int(delta / p.Slot)
		if time.Duration(k)*p.Slot != delta {
			k++
		}
		// Fully-connected fast path. The drift steps are non-negative
		// (rates are distances over positive dt), so the
		// sequentially-accumulated offsets are non-decreasing within the
		// segment: adding y ≥ 0 under round-to-nearest never moves a
		// float below itself. The last slot's checked values (k−1
		// accumulation steps from here) therefore bound every check in
		// the segment — if they are inside tolerance, no slot is off, and
		// the per-slot bookkeeping collapses to O(1). The accumulation
		// itself still runs step by step, so lat/ang leave the segment
		// bit-identical to the per-slot loop.
		lat0, ang0 := lat, ang
		for i := 1; i < k; i++ {
			lat += latStep
			ang += angStep
		}
		if lat <= tolLat && ang <= tolAng {
			lat += latStep
			ang += angStep
			slots += k
			if total := slotInFrame + k; total >= 30 {
				// The first completed frame carries the off count
				// accumulated before this segment; the rest are all-on
				// frames.
				res.FrameHistogram[frameOff]++
				res.FrameHistogram[0] += total/30 - 1
				slotInFrame = total % 30
				frameOff = 0
			} else {
				slotInFrame = total
			}
			at += time.Duration(k) * p.Slot
			continue
		}
		// At least one slot trips a tolerance: replay the segment per
		// slot (the adds are pure, so the replay revisits the exact same
		// values).
		lat, ang = lat0, ang0
		for ; at < limit; at += p.Slot {
			// Connectivity check for this slot.
			slots++
			off := lat > tolLat || ang > tolAng
			if off {
				offSlots++
				frameOff++
				if sink != nil {
					delivered = emitOff(sink, delivered, slots-1)
				}
			}
			slotInFrame++
			if slotInFrame == 30 {
				res.FrameHistogram[frameOff]++
				slotInFrame, frameOff = 0, 0
			}

			// Drift across the slot.
			lat += latStep
			ang += angStep
		}
	}
	if slotInFrame > 0 {
		res.FrameHistogram[frameOff]++
	}
	if sink != nil && delivered < slots {
		sink(delivered, slots-delivered, false)
	}
	res.Slots = slots
	res.OffSlots = offSlots
	if res.Slots > 0 {
		res.OnFraction = 1 - float64(res.OffSlots)/float64(res.Slots)
	}
	recordTrace(reg, res.Slots, res.OffSlots, res.OnFraction)
	return res
}

// emitOff hands sink the on-run of slots [delivered, s) and then off
// slot s, returning the new delivered count. On runs reach sink only
// here and at the end of the trace, so the segment fast path makes no
// call.
func emitOff(sink func(slot, n int, off bool), delivered, s int) int {
	if delivered < s {
		sink(delivered, s-delivered, false)
	}
	sink(s, 1, true)
	return s + 1
}

// faultArms is SimulateTraceChaos's fault state: the window cursor, the
// blocked episode and the multi-TX rescue draw. It lives in a struct
// apart from the slot loop's drift state, which the clean path then
// keeps in registers.
type faultArms struct {
	p       *ChaosParams
	windows []fault.Window
	// windows[:next] have started and until is the latest End among
	// them. horizon is the next instant the arms need a look: the current
	// slot while stepping, else the next window start.
	next           int
	until, horizon time.Duration

	relockUntil  time.Duration
	wasBlocked   bool
	blockedSince time.Duration

	inOcc, rescued, blockedRescued bool
	hoUntil, handoverDark          time.Duration
	rng                            *rand.Rand

	om *fault.OutageMetrics
	hm *fault.HandoverMetrics
}

// newFaultArms registers the outage instruments in reg (and the handover
// ones when p has standby TXs).
func newFaultArms(p *ChaosParams, sched *fault.Schedule, reg *obs.Registry) faultArms {
	a := faultArms{p: p, relockUntil: -1, handoverDark: p.HandoverDark, om: fault.NewOutageMetrics(reg)}
	if sched != nil {
		a.windows = sched.Windows
	}
	if a.handoverDark <= 0 {
		a.handoverDark = 2 * time.Millisecond
	}
	// Multi-TX handover state. The rescue stream is a per-trace rng
	// derived from the schedule's seed, with a fixed per-episode
	// consumption pattern (one draw per standby, every episode), so any
	// worker count replays it bit for bit. TXCount ≤ 1 creates neither
	// the rng nor the handover instruments — the historical single-TX
	// path, byte-identical exposition included.
	if p.TXCount > 1 {
		a.hm = fault.NewHandoverMetrics(reg)
		a.rng = rand.New(rand.NewSource(sched.Seed*9176 + 13))
	}
	return a
}

// stepping advances the window cursor to at and reports whether slot at
// needs the per-slot fault arms: it lies inside a window, or it follows
// a blocked slot (a re-lock tail is a run of blocked slots, and the slot
// after it observes the reacquire). Otherwise the slot is clear of
// occlusion, so no episode is open, and the arms sleep until the next
// window starts.
func (a *faultArms) stepping(at time.Duration) bool {
	for a.next < len(a.windows) && a.windows[a.next].Start <= at {
		a.until = max(a.until, a.windows[a.next].End)
		a.next++
	}
	if at < a.until || a.wasBlocked {
		a.horizon = at
		return true
	}
	a.inOcc = false
	a.horizon = math.MaxInt64
	if a.next < len(a.windows) {
		a.horizon = a.windows[a.next].Start
	}
	return false
}

// blocked runs the occlusion arms for slot at, whose total attenuation
// is attenDB, and reports whether the slot is blocked.
func (a *faultArms) blocked(at time.Duration, attenDB float64, res *ChaosTraceResult) bool {
	p := a.p
	// Occlusion and its re-lock tail. With standby TXs, each occlusion
	// episode draws whether any standby path escaped the same event: a
	// rescued episode costs HandoverDark of blocked slots (the
	// make-before-break slew) and no re-lock tail; an unrescued one pays
	// the full single-TX cost.
	occluded := attenDB >= p.BlockAttenDB && p.BlockAttenDB > 0
	if occluded && !a.inOcc {
		a.inOcc = true
		a.rescued = false
		if a.rng != nil {
			// One draw per standby on every episode, rescued or not, so
			// the stream's consumption pattern is fixed.
			for k := 1; k < p.TXCount; k++ {
				if a.rng.Float64() >= p.StandbyBlockProb {
					a.rescued = true
				}
			}
			if a.rescued {
				a.hoUntil = at + a.handoverDark
				res.Handovers++
				if a.hm != nil {
					a.hm.Handovers.Inc()
					a.hm.Dark.Observe(a.handoverDark.Seconds())
				}
			}
		}
	} else if !occluded {
		a.inOcc = false
	}
	sever := occluded && !(a.rescued && at >= a.hoUntil)
	if sever && !a.rescued {
		a.relockUntil = at + p.Relock
	}
	blocked := sever || (a.relockUntil >= 0 && at < a.relockUntil)
	if blocked && !a.wasBlocked {
		a.blockedSince = at
		a.blockedRescued = a.rescued
		if !a.rescued {
			// A rescued episode is a handover, not an outage: the
			// transceiver's holdover rides the switch, so neither
			// cyclops_outage_total nor the re-lock histogram sees it.
			res.Outages++
			if a.om != nil {
				a.om.Outages.Inc()
			}
		}
	}
	if !blocked && a.wasBlocked && !a.blockedRescued && a.om != nil {
		a.om.Reacquire.Observe((at - a.blockedSince).Seconds())
	}
	a.wasBlocked = blocked
	return blocked
}

// driftSteps caches the per-report drift steps of one trace, simBlock
// reports at a time (see SimulateTraceChaos).
type driftSteps struct {
	lat, ang [simBlock]float64 // steps of reports [lo, hi)
	lo, hi   int
	slotSec  float64
	// prevN is the normalized orientation of report prevNIdx, reused as
	// the a side of the next pair (each report is the b of one pair and
	// the a of the next): one normalization per report instead of two.
	prevN    geom.Quat
	prevNIdx int
	// lastGap/lastDt memoize the report-spacing conversion — in the
	// corpus the gap is a constant 10 ms, so Duration.Seconds (two
	// integer divides) runs once instead of once per report. Both caches
	// are pure, so the cached values are exactly the recomputed ones.
	lastGap time.Duration
	lastDt  float64
	// Steps persist across dt ≤ 0 reports (a malformed pair keeps the
	// previous rates), so the fill carries the last computed values. A
	// dt ≤ 0 report arrives in the same slot as its predecessor, so a
	// fault swallows both or neither and the carry is always the last
	// applied step.
	carryLat, carryAng float64
}

// fill computes the steps of reports [lo, lo+simBlock). It is a method
// rather than a closure in the slot loop, and works on local copies of
// its state, so the loop's live variables do not crowd the
// normalize→distance→angle chains out of registers.
func (c *driftSteps) fill(samples []trace.Sample, lo int) {
	hi := min(lo+simBlock, len(samples))
	slotSec := c.slotSec
	prevN, prevNIdx, lastGap, lastDt := c.prevN, c.prevNIdx, c.lastGap, c.lastDt
	carryLat, carryAng := c.carryLat, c.carryAng
	for j := lo; j < hi; j++ {
		a, b := &samples[j-1], &samples[j]
		if gap := b.At - a.At; gap != lastGap {
			lastGap, lastDt = gap, gap.Seconds()
		}
		if dt := lastDt; dt > 0 {
			if prevNIdx != j-1 {
				prevN = a.Pose.Rot.Normalize()
			}
			bN := b.Pose.Rot.Normalize()
			dLin := a.Pose.Trans.Dist(b.Pose.Trans)
			dAng := geom.AngleBetweenNormalized(prevN, bN)
			prevN, prevNIdx = bN, j
			latRate := dLin / dt
			angRate := dAng / dt
			carryLat = latRate * slotSec
			carryAng = angRate * slotSec
		}
		c.lat[j-lo] = carryLat
		c.ang[j-lo] = carryAng
	}
	c.prevN, c.prevNIdx, c.lastGap, c.lastDt = prevN, prevNIdx, lastGap, lastDt
	c.carryLat, c.carryAng = carryLat, carryAng
	c.lo, c.hi = lo, hi
}

// recordTrace is the single registering call site for the per-trace sim
// metrics — the clean corpus path and every chaos arm feed the same
// series, so a corpus mixing them still merges into one exposition.
func recordTrace(reg *obs.Registry, slots, offSlots int, onFraction float64) {
	if reg == nil {
		return
	}
	reg.Counter("cyclops_sim_traces_total",
		"Head-motion traces run through the 5.4 slot model.").Inc()
	reg.Counter("cyclops_sim_slots_total",
		"1 ms availability slots simulated.").Add(float64(slots))
	reg.Counter("cyclops_sim_off_slots_total",
		"Slots with the link disconnected.").Add(float64(offSlots))
	reg.Histogram("cyclops_sim_trace_off_fraction",
		"Per-trace disconnected fraction (the Fig 16 CDF's underlying distribution).",
		[]float64{0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1}).
		Observe(1 - onFraction)
}
