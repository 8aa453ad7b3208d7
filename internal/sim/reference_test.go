package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// simulateTraceReference is the §5.4 slot model with every fault arm as a
// straight-line check-every-slot loop: no event-driven segment stripping,
// no report batching, no memoized conversions — one slot per iteration,
// the fault state sampled at every slot, rates recomputed inline at each
// report, and the verdict handed to sink one slot at a time. It is the
// single oracle for SimulateTraceChaos's event-driven kernel (and, with a
// nil schedule, for SimulateTrace): both must produce identical results
// (including every accumulated float, observable through
// OffSlots/FrameHistogram), identical per-slot verdicts and identical
// metrics on any trace and schedule.
func simulateTraceReference(tr trace.Trace, p ChaosParams, sched *fault.Schedule, reg *obs.Registry, sink func(slot int, off bool)) ChaosTraceResult {
	res := ChaosTraceResult{TraceResult: TraceResult{ID: tr.ID}}
	if len(tr.Samples) < 2 || p.Slot <= 0 {
		return res
	}
	om := fault.NewOutageMetrics(reg)

	lat := p.TPLateralError
	ang := p.TPAngularError
	var latStep, angStep float64
	slotSec := p.Slot.Seconds()

	samples := tr.Samples
	nextReportIdx := 1
	var realignAt time.Duration = -1

	end := tr.Duration()
	frameOff := 0
	slotInFrame := 0
	slots, offSlots := 0, 0
	tolLat, tolAng := p.LateralTolerance, p.AngularTolerance

	// Blocked-episode state.
	var relockUntil time.Duration = -1
	wasBlocked := false
	var blockedSince time.Duration

	// Multi-TX handover state. The rescue stream is a per-trace rng
	// derived from the schedule's seed, with a fixed per-episode
	// consumption pattern (one draw per standby, every episode), so any
	// worker count replays it bit for bit. TXCount ≤ 1 creates neither
	// the rng nor the handover instruments — the historical single-TX
	// path, byte-identical exposition included.
	multiTX := p.TXCount > 1
	handoverDark := p.HandoverDark
	if handoverDark <= 0 {
		handoverDark = 2 * time.Millisecond
	}
	var hm *fault.HandoverMetrics
	var rng *rand.Rand
	if multiTX {
		hm = fault.NewHandoverMetrics(reg)
		rng = rand.New(rand.NewSource(sched.Seed*9176 + 13))
	}
	inOcc := false
	rescued := false
	blockedRescued := false
	var hoUntil time.Duration

	for at := time.Duration(0); at < end; at += p.Slot {
		var fs fault.State
		if !sched.Empty() {
			fs = sched.At(at)
		}

		// Report arrivals. A blackout or divergence window swallows the
		// report entirely; otherwise drift rates update and a
		// realignment is scheduled, exactly like the base model.
		for nextReportIdx < len(samples) && samples[nextReportIdx].At <= at {
			a, b := &samples[nextReportIdx-1], &samples[nextReportIdx]
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
			if dt := (b.At - a.At).Seconds(); dt > 0 {
				dLin, dAng := a.Pose.Delta(b.Pose)
				latStep = dLin / dt * slotSec
				angStep = dAng / dt * slotSec
			}
			realignAt = b.At + p.RealignLatency
			nextReportIdx++
		}

		// Realignment completes — unless the mirrors are stuck, in which
		// case the command lands on a dead actuator and the offsets stand.
		if realignAt >= 0 && at >= realignAt {
			if !fs.GalvoStuck {
				lat = p.TPLateralError
				ang = p.TPAngularError
			}
			realignAt = -1
		}

		// Occlusion and its re-lock tail. With standby TXs, each
		// occlusion episode draws whether any standby path escaped the
		// same event: a rescued episode costs HandoverDark of blocked
		// slots (the make-before-break slew) and no re-lock tail; an
		// unrescued one pays the full single-TX cost.
		occluded := fs.AttenDB >= p.BlockAttenDB && p.BlockAttenDB > 0
		if occluded && !inOcc {
			inOcc = true
			rescued = false
			if multiTX {
				// One draw per standby on every episode, rescued or
				// not, so the stream's consumption pattern is fixed.
				for k := 1; k < p.TXCount; k++ {
					if rng.Float64() >= p.StandbyBlockProb {
						rescued = true
					}
				}
				if rescued {
					hoUntil = at + handoverDark
					res.Handovers++
					hm.Handovers.Inc()
					hm.Dark.Observe(handoverDark.Seconds())
				}
			}
		} else if !occluded {
			inOcc = false
		}
		sever := occluded && !(rescued && at >= hoUntil)
		if sever && !rescued {
			relockUntil = at + p.Relock
		}
		blocked := sever || (relockUntil >= 0 && at < relockUntil)
		if blocked && !wasBlocked {
			blockedSince = at
			blockedRescued = rescued
			if !rescued {
				// A rescued episode is a handover, not an outage: the
				// transceiver's holdover rides the switch, so neither
				// cyclops_outage_total nor the re-lock histogram sees it.
				res.Outages++
				if om != nil {
					om.Outages.Inc()
				}
			}
		}
		if !blocked && wasBlocked && !blockedRescued && om != nil {
			om.Reacquire.Observe((at - blockedSince).Seconds())
		}
		wasBlocked = blocked

		// Connectivity check for this slot.
		slots++
		off := blocked || lat > tolLat || ang > tolAng
		if off {
			offSlots++
			frameOff++
			if blocked {
				res.BlockedSlots++
			}
		}
		if sink != nil {
			sink(slots-1, off)
		}
		slotInFrame++
		if slotInFrame == 30 {
			res.FrameHistogram[frameOff]++
			slotInFrame, frameOff = 0, 0
		}

		lat += latStep
		ang += angStep
	}
	if slotInFrame > 0 {
		res.FrameHistogram[frameOff]++
	}
	res.Slots = slots
	res.OffSlots = offSlots
	if res.Slots > 0 {
		res.OnFraction = 1 - float64(res.OffSlots)/float64(res.Slots)
	}
	recordTrace(reg, res.Slots, res.OffSlots, res.OnFraction)
	return res
}

// slotRun is one side of a kernel-versus-reference comparison: the
// result, the per-slot verdicts the sink saw, and the metrics exposition.
type slotRun struct {
	res ChaosTraceResult
	off []bool
	exp string
}

// runKernel runs SimulateTraceChaos, expanding its run-length sink into
// per-slot verdicts. Runs that do not tile the trace in slot order fail
// the comparison through tiling.
func runKernel(tr trace.Trace, p ChaosParams, sched *fault.Schedule) (run slotRun, tiling error) {
	reg := obs.NewRegistry()
	run.res = SimulateTraceChaos(tr, p, sched, reg, func(slot, n int, off bool) {
		if tiling == nil && (slot != len(run.off) || n < 1) {
			tiling = fmt.Errorf("sink run (%d, %d) after %d slots", slot, n, len(run.off))
		}
		for ; n > 0; n-- {
			run.off = append(run.off, off)
		}
	})
	run.exp = reg.Exposition()
	return run, tiling
}

// runReference runs the per-slot oracle.
func runReference(tr trace.Trace, p ChaosParams, sched *fault.Schedule) slotRun {
	reg := obs.NewRegistry()
	var run slotRun
	run.res = simulateTraceReference(tr, p, sched, reg, func(_ int, off bool) {
		run.off = append(run.off, off)
	})
	run.exp = reg.Exposition()
	return run
}

// diffKernel compares the kernel with the reference on one input and
// returns the kernel's result.
func diffKernel(t testing.TB, name string, tr trace.Trace, p ChaosParams, sched *fault.Schedule) ChaosTraceResult {
	t.Helper()
	got, tiling := runKernel(tr, p, sched)
	want := runReference(tr, p, sched)
	if tiling != nil {
		t.Errorf("%s: %v", name, tiling)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: kernel %+v != reference %+v", name, got.res, want.res)
	}
	if !reflect.DeepEqual(got.off, want.off) {
		t.Errorf("%s: kernel sink verdicts differ from the reference's (%d vs %d slots)", name, len(got.off), len(want.off))
	}
	if got.exp != want.exp {
		t.Errorf("%s: kernel exposition differs from the reference's:\n%s\nvs\n%s", name, got.exp, want.exp)
	}
	return got.res
}

// swallowedReports counts the reports a schedule drops: those whose
// arrival slot (the first slot at or after the report) falls in a tracker
// blackout or solver divergence.
func swallowedReports(tr trace.Trace, slot time.Duration, sched *fault.Schedule) int {
	n := 0
	for _, s := range tr.Samples[1:] {
		at := (s.At + slot - 1) / slot * slot
		if at >= tr.Duration() {
			break
		}
		if fs := sched.At(at); fs.TrackerBlackout || fs.SolverDiverge {
			n++
		}
	}
	return n
}

// TestSimulateTraceMatchesReference pins the event-driven kernel (event
// segmentation, monotone fast path, blocked report-delta precompute,
// per-slot fault arms) to the per-slot reference: on real synthetic
// traces — including ones long enough to cross many simBlock boundaries —
// on adversarial spacings (duplicate timestamps, irregular and sub-slot
// gaps), and on hand-built fault schedules hitting each arm.
func TestSimulateTraceMatchesReference(t *testing.T) {
	p := Paper25G()
	check := func(name string, tr trace.Trace) {
		t.Helper()
		want := runReference(tr, ChaosParams{AvailabilityParams: p}, nil).res.TraceResult
		got := SimulateTrace(tr, p)
		if got.Slots != want.Slots || got.OffSlots != want.OffSlots ||
			math.Float64bits(got.OnFraction) != math.Float64bits(want.OnFraction) ||
			got.FrameHistogram != want.FrameHistogram {
			t.Errorf("%s: optimized %+v != reference %+v", name, got, want)
		}
		diffKernel(t, name, tr, PaperChaos25G(), nil)
	}

	// Full-length synthetic traces across several seeds (6001 reports
	// each: ~23 simBlock fills per trace).
	for _, seed := range []int64{3, 700, 701, -12} {
		check("synthetic", trace.Generate(seed, int(seed&7), time.Minute, geom.V(0, -1.5, 0)))
	}
	// Short trace: fewer reports than one block.
	check("short", trace.Generate(9, 1, 300*time.Millisecond, geom.Vec3{}))

	// Duplicate timestamps (dt == 0 must keep the previous drift rates)
	// and an irregular gap breaking the memoized conversion.
	base := trace.Generate(5, 2, 2*time.Second, geom.Vec3{})
	irregular := trace.Trace{ID: "irregular", Samples: append([]trace.Sample(nil), base.Samples...)}
	irregular.Samples[40].At = irregular.Samples[39].At // dt = 0
	irregular.Samples[80].At += 3 * time.Millisecond    // gap change
	irregular.Samples[81].At += 3 * time.Millisecond
	check("irregular", irregular)

	// Reports off the slot grid: every event lands between slots.
	subSlot := trace.Trace{ID: "sub-slot", Samples: append([]trace.Sample(nil), base.Samples...)}
	for i := 1; i < len(subSlot.Samples); i++ {
		subSlot.Samples[i].At += 400 * time.Microsecond
	}
	check("sub-slot", subSlot)

	// Fault arms, one schedule each, on a motion-heavy trace.
	tr := trace.Generate(5, 42, 10*time.Second, geom.V(0.35, 0.25, 1.0))
	ms := time.Millisecond
	occ := func(start, end time.Duration) fault.Window {
		return fault.Window{Kind: fault.Occlusion, Start: start, End: end, DepthDB: 30, Ramp: 10 * ms}
	}
	for _, c := range []struct {
		name    string
		tx      int
		block   float64
		windows []fault.Window
	}{
		{name: "occlusion", windows: []fault.Window{occ(2005*ms+300*time.Microsecond, 2300*ms)}},
		{name: "blackout", windows: []fault.Window{{Kind: fault.TrackerBlackout, Start: 1001 * ms, End: 1200 * ms}}},
		{name: "stuck", windows: []fault.Window{{Kind: fault.GalvoStuck, Start: 3000 * ms, End: 3400 * ms}}},
		{name: "diverge+freeze", windows: []fault.Window{
			{Kind: fault.TrackerFreeze, Start: 400 * ms, End: 900 * ms},
			{Kind: fault.SolverDiverge, Start: 500 * ms, End: 700 * ms},
		}},
		{name: "back-to-back", windows: []fault.Window{occ(1000*ms, 1100*ms), occ(1300*ms, 1350*ms)}},
		{name: "shallow", windows: []fault.Window{{Kind: fault.Occlusion, Start: 5 * time.Second, End: 6 * time.Second, DepthDB: 6}}},
		{name: "haze", windows: []fault.Window{{Kind: fault.HazeFade, Start: 4 * time.Second, End: 9 * time.Second, DepthDB: 30, Ramp: time.Second, RampDown: 2 * time.Second}}},
		{name: "rescued", tx: 2, windows: []fault.Window{occ(1500*ms, 1800*ms)}},
		{name: "rescued twice, hard edges", tx: 2, windows: []fault.Window{
			{Kind: fault.Occlusion, Start: 1500 * ms, End: 1800 * ms, DepthDB: 30},
			{Kind: fault.Occlusion, Start: 2500 * ms, End: 2600 * ms, DepthDB: 30},
		}},
		{name: "three-tx", tx: 3, block: 0.5, windows: []fault.Window{occ(1500*ms, 1800*ms), occ(4*time.Second, 4200*ms), occ(7*time.Second, 7010*ms)}},
	} {
		q := PaperChaos25G()
		q.Relock = 500 * ms
		q.TXCount = c.tx
		q.StandbyBlockProb = c.block
		diffKernel(t, c.name, tr, q, &fault.Schedule{Seed: 3, Windows: c.windows})
	}
}

// TestSlotKernelMatchesReferenceCorpus is the corpus-scale differential
// test: 32 one-minute corpus traces through the kernel and the per-slot
// reference under each fig16-faults cell, the default and haze chaos
// mixes, and a three-TX ring — results, expanded sink runs and metrics
// exposition bit for bit. It also requires that the inputs fire every arm
// the comparison is meant to cover, so it cannot pass vacuously.
func TestSlotKernelMatchesReferenceCorpus(t *testing.T) {
	traces := Materialize(trace.Source{Seed: 1, N: 32, Length: time.Minute, Origin: geom.V(0.35, 0.25, 1.0)}, 0)
	type arm struct {
		name string
		cfg  fault.Config
		p    ChaosParams
	}
	var arms []arm
	for _, rate := range []float64{0.5, 2} {
		for _, dur := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond} {
			arms = append(arms, arm{
				name: fmt.Sprintf("fig16-faults %v/min %v", rate, dur),
				cfg: fault.Config{
					Occlusion:        fault.ClassConfig{PerMin: rate, MinDur: dur, MaxDur: dur},
					OcclusionDepthDB: [2]float64{25, 45},
					OcclusionRamp:    10 * time.Millisecond,
					Blackout:         fault.ClassConfig{PerMin: 1, MinDur: 50 * time.Millisecond, MaxDur: 150 * time.Millisecond},
					Stuck:            fault.ClassConfig{PerMin: 0.5, MinDur: 100 * time.Millisecond, MaxDur: 300 * time.Millisecond},
				},
				p: PaperChaos25G(),
			})
		}
	}
	arms = append(arms,
		arm{name: "default", cfg: fault.DefaultConfig(), p: PaperChaos25G()},
		arm{name: "haze", cfg: fault.DefaultHazeConfig(), p: PaperChaos25G()},
	)
	threeTX := PaperChaos25G()
	threeTX.TXCount = 3
	threeTX.StandbyBlockProb = 0.3
	arms = append(arms, arm{name: "three-tx", cfg: fault.DefaultConfig(), p: threeTX})

	var outages, handovers, swallowed int
	for _, a := range arms {
		for i, tr := range traces {
			sched := fault.Plan(a.cfg, 2+7919*int64(i), tr.Duration())
			r := diffKernel(t, fmt.Sprintf("%s trace %d", a.name, i), tr, a.p, &sched)
			outages += r.Outages
			handovers += r.Handovers
			swallowed += swallowedReports(tr, a.p.Slot, &sched)
		}
	}
	t.Logf("%d outages, %d rescues, %d swallowed reports", outages, handovers, swallowed)
	if outages == 0 || handovers == 0 || swallowed == 0 {
		t.Fatalf("corpus fired %d outages, %d rescues, %d swallowed reports — test is vacuous",
			outages, handovers, swallowed)
	}
}

// FuzzSlotKernel checks the event-driven kernel against the per-slot
// reference on fuzzed schedules: up to 16 windows of any kind with fuzzed
// start, end, depth and ramp (each 7 bytes of windows; starts and ends in
// 250 µs steps, so they fall off the slot grid), 1–4 TXs, a re-lock time,
// a standby blocking probability, and a short synthetic trace whose
// reports may be shifted off the slot grid.
func FuzzSlotKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, traceSeed int64, lengthMs, offsetUs uint16, txCount uint8, relockMs uint16, standbyBlock uint8, windows []byte) {
		length := time.Duration(50+int(lengthMs)%3000) * time.Millisecond
		tr := trace.Generate(traceSeed, 0, length, geom.V(0.35, 0.25, 1.0))
		if shift := time.Duration(offsetUs%1000) * time.Microsecond; shift > 0 {
			for i := 1; i < len(tr.Samples); i++ {
				tr.Samples[i].At += shift
			}
		}

		p := PaperChaos25G()
		p.TXCount = 1 + int(txCount%4)
		p.Relock = time.Duration(relockMs%2000) * time.Millisecond
		p.StandbyBlockProb = float64(standbyBlock) / 255

		sched := fault.Schedule{Seed: traceSeed}
		const quarter = 250 * time.Microsecond
		for len(windows) >= 7 && len(sched.Windows) < 16 {
			b := windows[:7]
			windows = windows[7:]
			start := time.Duration(uint16(b[1])<<8|uint16(b[2])) % 16000 * quarter
			w := fault.Window{
				Kind:    fault.Kind(b[0] % 7),
				Start:   start,
				End:     start + time.Duration(b[3])*4*time.Millisecond + time.Duration(b[4])*quarter,
				DepthDB: float64(b[5]) / 4,
				Ramp:    time.Duration(b[6]%64) * time.Millisecond,
				Limit:   1,
			}
			if w.Kind == fault.HazeFade {
				w.RampDown = 2 * w.Ramp
			}
			sched.Windows = append(sched.Windows, w)
		}
		// Schedule.At relies on fault.Plan's (Start, Kind) order.
		sort.SliceStable(sched.Windows, func(i, j int) bool {
			a, b := sched.Windows[i], sched.Windows[j]
			return a.Start < b.Start || a.Start == b.Start && a.Kind < b.Kind
		})
		diffKernel(t, "fuzz", tr, p, &sched)
	})
}
