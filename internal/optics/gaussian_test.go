package optics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBeamRadius(t *testing.T) {
	b := GaussianBeam{W0: MM(2), Divergence: Mrad(4)}
	almost(t, b.RadiusAt(0), MM(2), 1e-12, "radius at 0")
	almost(t, b.RadiusAt(1.75), MM(2)+0.004*1.75, 1e-12, "radius at 1.75m")
	almost(t, b.DiameterAt(1.75), 2*(MM(2)+0.004*1.75), 1e-12, "diameter")
	// Negative z is symmetric.
	almost(t, b.RadiusAt(-1), b.RadiusAt(1), 1e-15, "symmetry")
}

func TestDivergenceFor(t *testing.T) {
	// 2 mm launch radius → 20 mm diameter at 1.75 m needs (10-2)/1750 rad.
	got := DivergenceFor(MM(2), MM(20), 1.75)
	almost(t, got, 0.008/1.75, 1e-12, "divergence")
	// Target smaller than launch clamps to collimated.
	if got := DivergenceFor(MM(10), MM(10), 1.75); got != 0 {
		t.Errorf("shrinking beam divergence = %v, want 0", got)
	}
}

func TestCaptureCenteredClosedForm(t *testing.T) {
	// Quadrature must agree with the closed form for centered apertures.
	cases := []struct{ w, a float64 }{
		{MM(10), MM(12)},
		{MM(10), MM(5)},
		{MM(8), MM(12)},
		{MM(2), MM(12)},
		{MM(20), MM(12)},
	}
	for _, c := range cases {
		num := CaptureFraction(c.w, c.a, 0)
		closed := CaptureFractionCentered(c.w, c.a)
		almost(t, num, closed, 2e-4, "capture w/a centered")
	}
}

// captureReference is CaptureFraction's polar midpoint rule at a caller-
// chosen resolution — the fine oracle for the fixed 64×32 one.
func captureReference(w, a, dist float64, nr, nt int) float64 {
	inv2w2 := 2 / (w * w)
	dr, dt := a/float64(nr), 2*math.Pi/float64(nt)
	var sum float64
	for i := 0; i < nr; i++ {
		r := (float64(i) + 0.5) * dr
		for j := 0; j < nt; j++ {
			th := (float64(j) + 0.5) * dt
			x, y := dist+r*math.Cos(th), r*math.Sin(th)
			sum += math.Exp(-(x*x+y*y)*inv2w2) * r
		}
	}
	return 2 / (math.Pi * w * w) * sum * dr * dt
}

// TestCaptureOffCenterOracle holds the fixed quadrature to its documented
// bound off the beam axis, over the catalog range (w 4–16 mm at the
// 12 mm aperture, offsets out to 25 mm), against a 512×256 reference.
// The grid includes the worst point measured on a 0.5 mm sweep (w 5.5 mm,
// d 1.5 mm: 1.65e-4).
func TestCaptureOffCenterOracle(t *testing.T) {
	a := MM(12)
	for _, wmm := range []float64{4, 5.5, 8, 12, 16} {
		for _, dmm := range []float64{0, 1.5, 4, 8, 12, 18, 25} {
			got := CaptureFraction(MM(wmm), a, MM(dmm))
			want := captureReference(MM(wmm), a, MM(dmm), 512, 256)
			almost(t, got, want, 2e-4, "capture off-center")
		}
	}
}

func TestCaptureMonotoneInOffset(t *testing.T) {
	w, a := MM(10), MM(12)
	prev := math.Inf(1)
	for d := 0.0; d <= 0.04; d += 0.002 {
		f := CaptureFraction(w, a, d)
		if f > prev+1e-9 {
			t.Fatalf("capture increased with offset at d=%v", d)
		}
		prev = f
	}
}

func TestCaptureBounds(t *testing.T) {
	f := func(wmm, amm, dmm float64) bool {
		w, a, d := MM(math.Abs(wmm))+1e-4, MM(math.Abs(amm))+1e-4, MM(math.Abs(dmm))
		c := CaptureFraction(w, a, d)
		return c >= 0 && c <= 1
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Rand:     rand.New(rand.NewSource(9)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(r.Float64() * 40)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCaptureDegenerateInputs(t *testing.T) {
	if CaptureFraction(0, MM(12), 0) != 0 {
		t.Error("zero beam radius should capture nothing")
	}
	if CaptureFraction(MM(10), 0, 0) != 0 {
		t.Error("zero aperture should capture nothing")
	}
	if CaptureFractionCentered(0, 1) != 0 || CaptureFractionCentered(1, 0) != 0 {
		t.Error("closed form degenerate inputs")
	}
}

func TestCaptureTinyBeamFullyCaptured(t *testing.T) {
	// A beam much narrower than the aperture is fully captured when
	// centered.
	got := CaptureFraction(MM(1), MM(12), 0)
	if got < 0.999 {
		t.Errorf("narrow beam capture = %v", got)
	}
	// And lost when offset beyond the aperture edge.
	got = CaptureFraction(MM(1), MM(12), MM(20))
	if got > 1e-6 {
		t.Errorf("far-offset narrow beam capture = %v", got)
	}
}

func TestCaptureFarFieldGaussianRatio(t *testing.T) {
	// For an aperture much smaller than the beam, the offset response is
	// the Gaussian intensity ratio exp(-2d²/w²).
	w, a := MM(50), MM(2)
	base := CaptureFraction(w, a, 0)
	for _, dmm := range []float64{10, 20, 30} {
		d := MM(dmm)
		want := base * math.Exp(-2*d*d/(w*w))
		got := CaptureFraction(w, a, d)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("small-aperture ratio at d=%vmm: got %v want %v", dmm, got, want)
		}
	}
}

func TestAngleCoupling(t *testing.T) {
	acc := Mrad(4)
	almost(t, AngleCouplingFraction(0, acc), 1, 1e-12, "aligned")
	almost(t, AngleCouplingFraction(acc, acc), math.Exp(-2), 1e-12, "at acceptance")
	// Symmetric in angle sign.
	almost(t, AngleCouplingFraction(-Mrad(2), acc), AngleCouplingFraction(Mrad(2), acc), 1e-15, "symmetry")
	// Loss form agrees.
	almost(t, AngleCouplingLossDB(acc, acc), -10*math.Log10(math.Exp(-2)), 1e-9, "loss dB")
}

func TestAngleCouplingZeroAcceptance(t *testing.T) {
	if AngleCouplingFraction(0, 0) != 1 {
		t.Error("zero angle with zero acceptance should pass")
	}
	if AngleCouplingFraction(1e-9, 0) != 0 {
		t.Error("any angle with zero acceptance should block")
	}
}
