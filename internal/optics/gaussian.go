package optics

import "math"

// GaussianBeam describes a TEM00 beam by its 1/e² intensity radius at the
// waist (assumed at the transmitter aperture for our short links) and its
// far-field divergence half-angle. Over the 1.5–2 m spans Cyclops cares
// about, the radius evolves essentially linearly:
//
//	w(z) ≈ W0 + Divergence·z
//
// which is exact in the geometric (large divergence) limit the adjustable
// collimator operates in, and within a percent of the true hyperbolic
// profile for the collimated option at these ranges.
type GaussianBeam struct {
	W0         float64 // 1/e² radius at the transmitter, meters
	Divergence float64 // half-angle, radians (0 for an ideal collimated beam)
}

// RadiusAt returns the 1/e² intensity radius at distance z.
func (b GaussianBeam) RadiusAt(z float64) float64 {
	return b.W0 + b.Divergence*math.Abs(z)
}

// DiameterAt returns the 1/e² intensity diameter at distance z.
func (b GaussianBeam) DiameterAt(z float64) float64 { return 2 * b.RadiusAt(z) }

// DivergenceFor returns the divergence half-angle needed for the beam to
// reach 1/e² diameter d at distance z, clamped at ≥ 0 (a target diameter
// smaller than the launch diameter yields a collimated beam).
func DivergenceFor(w0, d, z float64) float64 {
	div := (d/2 - w0) / z
	if div < 0 {
		div = 0
	}
	return div
}

// CaptureFraction returns the fraction of total beam power falling inside
// a circular aperture of radius a whose center is offset by dist from the
// beam axis, for a beam with 1/e² radius w at the aperture plane.
//
// The intensity profile is I(r) = (2/(πw²))·exp(-2r²/w²) (unit total
// power). The integral over the offset disk has no closed form, so we
// integrate numerically in polar coordinates around the aperture center.
// The quadrature is fixed-order (64×32 midpoint). Against a 512×512
// midpoint reference over the catalog range — w 4–16 mm, a = 12 mm,
// offsets 0–25 mm — its absolute error is at most 1.7e-4 (worst near
// w = 5.5 mm, dist = 1.5 mm, where capture is ≈1 and that is < 0.001 dB).
// It is not accurate for a beam narrow against the 32-point angular
// spacing far off center: at w = 1 mm, a = 12 mm, dist = 11 mm it returns
// 0.33 where the reference gives 0.98.
func CaptureFraction(w, a, dist float64) float64 {
	if w <= 0 || a <= 0 {
		return 0
	}
	const nr, nt = 64, 32
	inv2w2 := 2 / (w * w)
	norm := 2 / (math.Pi * w * w)
	var sum float64
	dr := a / nr
	dt := 2 * math.Pi / nt
	for i := 0; i < nr; i++ {
		r := (float64(i) + 0.5) * dr
		for j := 0; j < nt; j++ {
			t := (float64(j) + 0.5) * dt
			// Point in the aperture, measured from the beam axis.
			x := dist + r*math.Cos(t)
			y := r * math.Sin(t)
			sum += math.Exp(-(x*x+y*y)*inv2w2) * r
		}
	}
	frac := norm * sum * dr * dt
	if frac > 1 {
		frac = 1
	}
	return frac
}

// CaptureFractionCentered is the closed form of CaptureFraction for a
// centered aperture: 1 - exp(-2a²/w²). Used both as a fast path and as a
// cross-check for the quadrature.
func CaptureFractionCentered(w, a float64) float64 {
	if w <= 0 || a <= 0 {
		return 0
	}
	return 1 - math.Exp(-2*a*a/(w*w))
}

// AngleCouplingFraction returns the fiber-coupling efficiency for an
// incidence-angle mismatch theta given the terminal's angular acceptance
// (the 1/e² half-angle of the coupling response):
//
//	η(θ) = exp(-2·(θ/acceptance)²)
//
// This Gaussian angular response is the standard single-mode/multimode
// overlap model; the acceptance constant is a property of the collimator
// and fiber and is calibrated per part in the catalog.
func AngleCouplingFraction(theta, acceptance float64) float64 {
	if acceptance <= 0 {
		if theta == 0 {
			return 1
		}
		return 0
	}
	r := theta / acceptance
	return math.Exp(-2 * r * r)
}

// AngleCouplingLossDB returns the same response as a dB loss.
func AngleCouplingLossDB(theta, acceptance float64) float64 {
	return FractionToDB(AngleCouplingFraction(theta, acceptance))
}
