package fault

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// Plan is a pure function of (Config, seed, duration): the schedule must
// render byte-identically across calls, and distinct seeds must actually
// move the windows.
func TestPlanDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a := Plan(cfg, 42, 30*time.Second)
	b := Plan(cfg, 42, 30*time.Second)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a.String(), b.String())
	}
	if len(a.Windows) == 0 {
		t.Fatal("default config over 30s produced no windows")
	}
	c := Plan(cfg, 43, 30*time.Second)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPlanWindowsWellFormed(t *testing.T) {
	dur := 45 * time.Second
	s := Plan(DefaultConfig(), 7, dur)
	var prev time.Duration = -1
	for i, w := range s.Windows {
		if w.Start < 0 || w.End > dur || w.End <= w.Start {
			t.Errorf("window %d malformed: %+v", i, w)
		}
		if w.Start < prev {
			t.Errorf("window %d out of order: start %v after %v", i, w.Start, prev)
		}
		prev = w.Start
		if w.Kind == Occlusion && (w.DepthDB < 25 || w.DepthDB > 45) {
			t.Errorf("occlusion depth out of configured bounds: %+v", w)
		}
	}
}

func TestScheduleAt(t *testing.T) {
	s := &Schedule{Windows: []Window{
		{Kind: Occlusion, Start: 100 * time.Millisecond, End: 300 * time.Millisecond,
			DepthDB: 40, Ramp: 20 * time.Millisecond},
		{Kind: Occlusion, Start: 150 * time.Millisecond, End: 250 * time.Millisecond, DepthDB: 10},
		{Kind: TrackerBlackout, Start: 200 * time.Millisecond, End: 220 * time.Millisecond},
		{Kind: GalvoSaturation, Start: 200 * time.Millisecond, End: 260 * time.Millisecond, Limit: 1.5},
		{Kind: GalvoSaturation, Start: 210 * time.Millisecond, End: 240 * time.Millisecond, Limit: 0.5},
	}}
	cases := []struct {
		at    time.Duration
		atten float64
		black bool
		limit float64
	}{
		{0, 0, false, 0},
		{100 * time.Millisecond, 0, false, 0},  // leading-edge ramp starts at 0
		{110 * time.Millisecond, 20, false, 0}, // halfway up the 20 ms ramp
		{150 * time.Millisecond, 40, false, 0}, // plateau; overlap takes max(40, 10)
		{205 * time.Millisecond, 40, true, 1.5},
		{215 * time.Millisecond, 40, true, 0.5},  // tighter limit wins
		{250 * time.Millisecond, 40, false, 1.5}, // 0.5 V window already over
		{295 * time.Millisecond, 10, false, 0},   // trailing ramp: 5 ms left of 20 ms
		{300 * time.Millisecond, 0, false, 0},    // End is exclusive
	}
	for _, c := range cases {
		st := s.At(c.at)
		if st.AttenDB != c.atten || st.TrackerBlackout != c.black || st.GalvoSatLimit != c.limit {
			t.Errorf("At(%v) = %+v, want atten %v blackout %v limit %v",
				c.at, st, c.atten, c.black, c.limit)
		}
	}
}

func TestEmptySchedule(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Error("nil schedule must be Empty")
	}
	if nilSched.At(time.Second).Any() {
		t.Error("nil schedule must inject nothing")
	}
	empty := &Schedule{Seed: 5}
	if !empty.Empty() || empty.At(0).Any() {
		t.Error("windowless schedule must be Empty and inject nothing")
	}
	if got := Plan(Config{}, 1, time.Minute); !got.Empty() {
		t.Errorf("zero config planned %d windows", len(got.Windows))
	}
}

// TestHazePlanWellFormed: the haze-only default config plans ramped
// windows with depth and both edges inside the configured bounds, and the
// schedule renders the asymmetric ramps.
func TestHazePlanWellFormed(t *testing.T) {
	cfg := DefaultHazeConfig()
	dur := 2 * time.Minute
	s := Plan(cfg, 11, dur)
	if len(s.Windows) == 0 {
		t.Fatal("default haze config over 2min produced no windows")
	}
	for i, w := range s.Windows {
		if w.Kind != HazeFade {
			t.Fatalf("window %d: haze-only config planned kind %v", i, w.Kind)
		}
		if w.DepthDB < cfg.HazeDepthDB[0] || w.DepthDB > cfg.HazeDepthDB[1] {
			t.Errorf("window %d depth %v outside %v", i, w.DepthDB, cfg.HazeDepthDB)
		}
		if w.Ramp < cfg.HazeRampUp[0] || w.Ramp > cfg.HazeRampUp[1] {
			t.Errorf("window %d ramp-up %v outside %v", i, w.Ramp, cfg.HazeRampUp)
		}
		if w.RampDown < cfg.HazeRampDown[0] || w.RampDown > cfg.HazeRampDown[1] {
			t.Errorf("window %d ramp-down %v outside %v", i, w.RampDown, cfg.HazeRampDown)
		}
	}
	again := Plan(cfg, 11, dur)
	if a, b := s.String(), again.String(); a != b {
		t.Fatalf("haze plan not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(s.String(), "haze-fade") {
		t.Errorf("schedule render missing haze windows:\n%s", s.String())
	}
}

// TestHazeKindAppended: HazeFade must stay numbered after SolverDiverge —
// each class seeds its rand stream from the Kind value, so renumbering
// would silently reshuffle every pinned schedule.
func TestHazeKindAppended(t *testing.T) {
	if HazeFade != SolverDiverge+1 {
		t.Fatalf("HazeFade = %d, want %d (appended after SolverDiverge)",
			HazeFade, SolverDiverge+1)
	}
	// Adding the haze class must not perturb the other classes' episodes.
	base := Plan(DefaultConfig(), 42, 30*time.Second)
	cfg := DefaultConfig()
	h := DefaultHazeConfig()
	cfg.Haze, cfg.HazeDepthDB = h.Haze, h.HazeDepthDB
	cfg.HazeRampUp, cfg.HazeRampDown = h.HazeRampUp, h.HazeRampDown
	mixed := Plan(cfg, 42, 30*time.Second)
	var stripped Schedule
	stripped.Seed = mixed.Seed
	for _, w := range mixed.Windows {
		if w.Kind != HazeFade {
			stripped.Windows = append(stripped.Windows, w)
		}
	}
	if base.String() != stripped.String() {
		t.Fatalf("enabling haze perturbed other classes:\n%s\nvs\n%s",
			base.String(), stripped.String())
	}
}

// TestHazeOcclusionComposition: an occlusion trapezoid and a haze ramp
// overlapping on the same plant must sum, with the haze component
// recoverable from HazeDB, and overlapping haze windows must stack.
func TestHazeOcclusionComposition(t *testing.T) {
	sec := time.Second
	s := &Schedule{Windows: []Window{
		// Haze: 2s up-ramp to 20 dB, plateau, 4s down-ramp, over [0s, 20s).
		{Kind: HazeFade, Start: 0, End: 20 * sec, DepthDB: 20,
			Ramp: 2 * sec, RampDown: 4 * sec},
		// Second haze layer on [5s, 15s): hard edges, 5 dB.
		{Kind: HazeFade, Start: 5 * sec, End: 15 * sec, DepthDB: 5},
		// Occlusion inside the plateau: 30 dB, 100 ms symmetric ramp.
		{Kind: Occlusion, Start: 10 * sec, End: 11 * sec, DepthDB: 30,
			Ramp: 100 * time.Millisecond},
	}}
	cases := []struct {
		at          time.Duration
		haze, total float64
	}{
		{0, 0, 0},                               // haze up-ramp starts at zero
		{1 * sec, 10, 10},                       // halfway up the 2s ramp
		{3 * sec, 20, 20},                       // plateau
		{6 * sec, 25, 25},                       // both haze layers stack
		{10*sec + 50*time.Millisecond, 25, 40},  // occlusion halfway up: 15 + 25
		{10*sec + 500*time.Millisecond, 25, 55}, // occlusion plateau: 30 + 25
		{16 * sec, 20, 20},                      // second layer over, still plateau
		{18 * sec, 10, 10},                      // halfway down the 4s down-ramp
		{20 * sec, 0, 0},                        // End exclusive
	}
	for _, c := range cases {
		st := s.At(c.at)
		if st.HazeDB != c.haze || st.AttenDB != c.total {
			t.Errorf("At(%v): haze %v total %v, want %v/%v",
				c.at, st.HazeDB, st.AttenDB, c.haze, c.total)
		}
	}
}

// TestCompositionPermutationInvariant: every At reduction is commutative
// (occlusion max, haze sum, saturation min), so permuting the window list
// must never change the injected dB sequence. This is the property that
// lets Plan order classes freely and lets overlapping windows from
// different classes compose on the same plant.
func TestCompositionPermutationInvariant(t *testing.T) {
	cfg := DefaultConfig()
	h := DefaultHazeConfig()
	cfg.Haze, cfg.HazeDepthDB = h.Haze, h.HazeDepthDB
	cfg.HazeRampUp, cfg.HazeRampDown = h.HazeRampUp, h.HazeRampDown
	dur := 90 * time.Second
	base := Plan(cfg, 23, dur)
	if len(base.Windows) < 4 {
		t.Fatalf("need a few windows to permute, got %d", len(base.Windows))
	}
	sample := func(s *Schedule) []State {
		var out []State
		for at := time.Duration(0); at <= dur; at += 50 * time.Millisecond {
			out = append(out, s.At(at))
		}
		return out
	}
	want := sample(&base)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		perm := Schedule{Seed: base.Seed, Windows: append([]Window(nil), base.Windows...)}
		rng.Shuffle(len(perm.Windows), func(i, j int) {
			perm.Windows[i], perm.Windows[j] = perm.Windows[j], perm.Windows[i]
		})
		// At relies on the (Start, Kind) sort for its early break; a
		// permuted plan must be re-sorted the same way Plan sorts — the
		// invariant under test is that the *reduction* is order-free.
		sort.SliceStable(perm.Windows, func(i, j int) bool {
			if perm.Windows[i].Start != perm.Windows[j].Start {
				return perm.Windows[i].Start < perm.Windows[j].Start
			}
			return perm.Windows[i].Kind < perm.Windows[j].Kind
		})
		got := sample(&perm)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: state diverged at sample %d: %+v vs %+v",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestAsymmetricRampBitCompat: a window with RampDown zero must evaluate
// exactly as the historical symmetric trapezoid at every instant.
func TestAsymmetricRampBitCompat(t *testing.T) {
	w := Window{Kind: Occlusion, Start: 100 * time.Millisecond,
		End: 400 * time.Millisecond, DepthDB: 33, Ramp: 20 * time.Millisecond}
	legacy := func(t time.Duration) float64 {
		if w.Ramp <= 0 {
			return w.DepthDB
		}
		frac := 1.0
		if in := t - w.Start; in < w.Ramp {
			frac = float64(in) / float64(w.Ramp)
		}
		if out := w.End - t; out < w.Ramp {
			if f := float64(out) / float64(w.Ramp); f < frac {
				frac = f
			}
		}
		return w.DepthDB * frac
	}
	for at := w.Start; at < w.End; at += time.Millisecond {
		if got, want := w.attenAt(at), legacy(at); got != want {
			t.Fatalf("attenAt(%v) = %v, legacy %v", at, got, want)
		}
	}
}

// atReference is Schedule.At by brute force: every window is scanned, in
// any order, with no early exit — the deepest occlusion plus the summed
// haze, every flag, the tightest saturation.
func atReference(s *Schedule, t time.Duration) State {
	var st State
	var occl float64
	for _, w := range s.Windows {
		if t < w.Start || t >= w.End {
			continue
		}
		switch w.Kind {
		case Occlusion:
			occl = max(occl, w.attenAt(t))
		case TrackerBlackout:
			st.TrackerBlackout = true
		case TrackerFreeze:
			st.TrackerFreeze = true
		case GalvoStuck:
			st.GalvoStuck = true
		case GalvoSaturation:
			if st.GalvoSatLimit == 0 || w.Limit < st.GalvoSatLimit {
				st.GalvoSatLimit = w.Limit
			}
		case SolverDiverge:
			st.SolverDiverge = true
		case HazeFade:
			st.HazeDB += w.attenAt(t)
		}
	}
	st.AttenDB = occl + st.HazeDB
	return st
}

// FuzzFaultPlan drives Plan through fuzzed rates, durations, ramps and run
// lengths inside the planner's input bounds (PerMin ≤ 600, MinDur ≥ 1 ms,
// MaxDur ≤ 10 s, which guarantee termination) and checks the schedule's
// shape — windows sorted by (Start, Kind), 0 ≤ Start ≤ End ≤ dur, no two
// windows of one kind overlapping — and Schedule.At against the
// brute-force atReference at every window edge and at fuzzed instants.
func FuzzFaultPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, durMs uint32, occlPerMin, hazePerMin, otherPerMin float64,
		minMs, maxMs, rampMs uint16, probe uint64) {
		for _, r := range []float64{occlPerMin, hazePerMin, otherPerMin} {
			if !(r <= 600) { // also rejects NaN
				return
			}
		}
		clampMs := func(ms uint16) time.Duration {
			return time.Duration(max(1, min(int(ms), 10_000))) * time.Millisecond
		}
		class := func(perMin float64) ClassConfig {
			return ClassConfig{PerMin: perMin, MinDur: clampMs(minMs), MaxDur: clampMs(maxMs)}
		}
		ramp := time.Duration(rampMs) * time.Millisecond
		dur := time.Duration(durMs%120_000) * time.Millisecond
		cfg := Config{
			Occlusion:        class(occlPerMin),
			OcclusionDepthDB: [2]float64{25, 45},
			OcclusionRamp:    ramp,
			Blackout:         class(otherPerMin),
			Freeze:           class(otherPerMin),
			Stuck:            class(otherPerMin),
			Saturation:       class(otherPerMin),
			SaturationLimit:  0.5,
			Diverge:          class(otherPerMin),
			Haze:             class(hazePerMin),
			HazeDepthDB:      [2]float64{18, 30},
			HazeRampUp:       [2]time.Duration{0, ramp},
			HazeRampDown:     [2]time.Duration{ramp / 2, 2 * ramp},
		}
		s := Plan(cfg, seed, dur)

		lastEnd := map[Kind]time.Duration{}
		for i, w := range s.Windows {
			if w.Start < 0 || w.Start > w.End || w.End > dur {
				t.Fatalf("window %d outside [0, %v]: %+v", i, dur, w)
			}
			if i > 0 {
				p := s.Windows[i-1]
				if w.Start < p.Start || (w.Start == p.Start && w.Kind < p.Kind) {
					t.Fatalf("windows %d, %d not in (Start, Kind) order: %+v, %+v", i-1, i, p, w)
				}
			}
			if end, seen := lastEnd[w.Kind]; seen && w.Start < end {
				t.Fatalf("window %d overlaps the previous %v window ending %v: %+v", i, w.Kind, end, w)
			}
			lastEnd[w.Kind] = w.End
		}

		check := func(at time.Duration) {
			got, want := s.At(at), atReference(&s, at)
			if got != want {
				t.Fatalf("At(%v) = %+v, brute force %+v", at, got, want)
			}
			if got.HazeDB > got.AttenDB {
				t.Fatalf("At(%v): HazeDB %v above AttenDB %v", at, got.HazeDB, got.AttenDB)
			}
		}
		for _, w := range s.Windows {
			for _, at := range []time.Duration{w.Start - 1, w.Start, w.Start + w.Ramp, w.End - 1, w.End} {
				check(at)
			}
		}
		rng := rand.New(rand.NewSource(int64(probe)))
		for k := 0; k < 64; k++ {
			check(time.Duration(rng.Int63n(int64(dur) + 1)))
		}
	})
}
