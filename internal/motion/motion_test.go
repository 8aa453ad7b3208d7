package motion

import (
	"math"
	"sync"
	"testing"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/trace"
)

func basePose() geom.Pose {
	return geom.NewPose(geom.QuatIdentity(), geom.V(0.35, 0.25, 1.0))
}

// measureSpeeds samples a program at 1 ms and returns max linear and
// angular speeds over 10 ms windows.
func measureSpeeds(p Program) (maxLin, maxAng float64) {
	const win = 10 * time.Millisecond
	for t := time.Duration(0); t+win <= p.Duration(); t += win {
		a, b := p.Pose(t), p.Pose(t+win)
		lin, ang := a.Delta(b)
		maxLin = math.Max(maxLin, lin/win.Seconds())
		maxAng = math.Max(maxAng, ang/win.Seconds())
	}
	return maxLin, maxAng
}

func TestStatic(t *testing.T) {
	s := Static{P: basePose(), Len: time.Second}
	if s.Pose(0) != s.Pose(999*time.Millisecond) {
		t.Error("static pose moved")
	}
	if s.Duration() != time.Second {
		t.Error("duration")
	}
}

func TestLinearStrokesKinematics(t *testing.T) {
	l := LinearStrokes{
		Base:       basePose(),
		Axis:       geom.V(1, 0, 0),
		HalfTravel: 0.25,
		StartSpeed: 0.10,
		SpeedStep:  0.05,
		Strokes:    4,
		Dwell:      200 * time.Millisecond,
	}
	// Starts at the -end.
	p0 := l.Pose(0)
	if math.Abs(p0.Trans.X-(basePose().Trans.X-0.25)) > 1e-9 {
		t.Errorf("start X = %v", p0.Trans.X)
	}
	// Motion is purely along the axis; rotation fixed.
	maxLin, maxAng := measureSpeeds(l)
	if maxAng > 1e-9 {
		t.Errorf("linear program rotated: %v rad/s", maxAng)
	}
	// Peak measured speed ≈ final stroke's commanded peak.
	want := l.PeakSpeed()
	if maxLin < want*0.9 || maxLin > want*1.1 {
		t.Errorf("peak speed = %v, commanded %v", maxLin, want)
	}
	// Ends of strokes dwell.
	endT := l.strokeDur(0) + l.Dwell/2
	pEnd := l.Pose(endT)
	if math.Abs(pEnd.Trans.X-(basePose().Trans.X+0.25)) > 1e-9 {
		t.Errorf("dwell not at +end: %v", pEnd.Trans.X)
	}
	// Pose beyond duration is stable.
	after := l.Pose(l.Duration() + time.Second)
	if math.Abs(after.Trans.Dist(basePose().Trans)-0.25) > 1e-6 {
		t.Errorf("post-program pose = %v", after.Trans)
	}
}

func TestLinearStrokesSpeedRamp(t *testing.T) {
	l := LinearStrokes{
		Base: basePose(), Axis: geom.V(1, 0, 0), HalfTravel: 0.25,
		StartSpeed: 0.1, SpeedStep: 0.1, Strokes: 3, Dwell: 0,
	}
	// Later strokes are faster, so shorter.
	if l.strokeDur(2) >= l.strokeDur(0) {
		t.Error("stroke durations not decreasing with speed ramp")
	}
	if got := l.PeakSpeed(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("PeakSpeed = %v", got)
	}
}

func TestAngularSweepsKinematics(t *testing.T) {
	a := AngularSweeps{
		Base:       basePose(),
		Axis:       geom.V(0, 0, 1),
		HalfAngle:  0.35, // ±20°
		StartSpeed: 0.2,
		SpeedStep:  0.1,
		Sweeps:     3,
		Dwell:      100 * time.Millisecond,
	}
	maxLin, maxAng := measureSpeeds(a)
	if maxLin > 1e-9 {
		t.Errorf("angular program translated: %v m/s", maxLin)
	}
	want := a.PeakSpeed()
	if maxAng < want*0.9 || maxAng > want*1.1 {
		t.Errorf("peak angular speed = %v, commanded %v", maxAng, want)
	}
}

func TestHandHeldExploresMixedMotion(t *testing.T) {
	h := &HandHeld{
		Base:       basePose(),
		MaxLinear:  0.6,
		MaxAngular: 1.5,
		Len:        20 * time.Second,
		Seed:       1,
	}
	maxLin, maxAng := measureSpeeds(h)
	if maxLin < 0.15 {
		t.Errorf("hand motion max linear %v m/s — too tame", maxLin)
	}
	if maxAng < 0.4 {
		t.Errorf("hand motion max angular %v rad/s — too tame", maxAng)
	}
	// Bounded: stays within arm's reach and plausible speeds.
	for ts := time.Duration(0); ts < h.Len; ts += 100 * time.Millisecond {
		if d := h.Pose(ts).Trans.Dist(basePose().Trans); d > 0.8 {
			t.Fatalf("hand motion wandered %v m from base", d)
		}
	}
	// Deterministic.
	h2 := &HandHeld{Base: basePose(), MaxLinear: 0.6, MaxAngular: 1.5, Len: 20 * time.Second, Seed: 1}
	if h.Pose(7*time.Second) != h2.Pose(7*time.Second) {
		t.Error("hand motion not deterministic in seed")
	}
}

func TestHandHeldRampsUp(t *testing.T) {
	h := &HandHeld{Base: basePose(), MaxLinear: 0.6, MaxAngular: 1.5, Len: 30 * time.Second, Seed: 2}
	speedIn := func(from, to time.Duration) float64 {
		var m float64
		for t := from; t+10*time.Millisecond <= to; t += 10 * time.Millisecond {
			lin, _ := h.Pose(t).Delta(h.Pose(t + 10*time.Millisecond))
			m = math.Max(m, lin/0.01)
		}
		return m
	}
	early := speedIn(0, 5*time.Second)
	late := speedIn(25*time.Second, 30*time.Second)
	if late <= early {
		t.Errorf("intensity did not ramp: early %v, late %v", early, late)
	}
}

func TestTracePlaybackRehomed(t *testing.T) {
	tr := trace.Generate(3, 0, 5*time.Second, geom.V(2, 3, 4))
	p := &TracePlayback{Base: basePose(), T: tr}
	// First pose lands on base.
	lin, ang := p.Pose(0).Delta(basePose())
	if lin > 1e-9 || ang > 1e-6 {
		t.Errorf("playback start not at base: %v m, %v rad", lin, ang)
	}
	// Relative motion preserved.
	wantLin, wantAng := tr.Samples[0].Pose.Delta(tr.Samples[100].Pose)
	gotLin, gotAng := p.Pose(0).Delta(p.Pose(time.Second))
	if math.Abs(wantLin-gotLin) > 1e-9 || math.Abs(wantAng-gotAng) > 1e-6 {
		t.Errorf("playback distorted motion: %v/%v vs %v/%v", gotLin, gotAng, wantLin, wantAng)
	}
	if p.Duration() != tr.Duration() {
		t.Error("duration mismatch")
	}
}

// One TracePlayback shared by several goroutines (parallel corpus or
// arena workers replaying the same program) must be safe to read
// concurrently — run under -race — and every goroutine must see the
// serial poses bit for bit.
func TestTracePlaybackConcurrentPose(t *testing.T) {
	tr := trace.Generate(3, 0, time.Second, geom.V(2, 3, 4))
	var shared Program = &TracePlayback{Base: basePose(), T: tr}
	want := (&TracePlayback{Base: basePose(), T: tr}).Pose(500 * time.Millisecond)
	var wg sync.WaitGroup
	got := make([]geom.Pose, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = shared.Pose(500 * time.Millisecond)
		}()
	}
	wg.Wait()
	for g, pose := range got {
		if pose != want {
			t.Errorf("goroutine %d: pose %v, want %v", g, pose, want)
		}
	}
}

func TestTracePlaybackEmpty(t *testing.T) {
	p := &TracePlayback{Base: basePose()}
	if got := p.Pose(0); got != basePose().Compose(geom.PoseIdentity()) {
		_ = got // empty trace yields base-composed identity; just ensure no panic
	}
}
