// Package handover builds the ceiling deployment for the multi-transmitter
// extension sketched in §3: "To circumvent occasional occlusions and/or
// limited field-of-view coverage of the GMs, we can use multiple TXs on
// the ceiling with appropriate handover techniques."
//
// The package places standby transmitters and builds their plants; the
// make-before-break controller that switches between them is core.Run's
// HandoverOptions path.
package handover

import (
	"math"

	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/optics"
)

// RingPositions returns count ceiling mount points evenly ringed around
// the primary TX position at the given spacing — the default multi-TX
// placement the fig16-handover sweep and cyclops-sim's -tx flag use.
// count is the number of standby positions (the primary at the ring's
// center is not included).
func RingPositions(count int, spacing float64) []geom.Vec3 {
	pos := make([]geom.Vec3, 0, count)
	for k := 0; k < count; k++ {
		th := 2 * math.Pi * float64(k) / float64(count)
		pos = append(pos, geom.V(spacing*math.Cos(th), spacing*math.Sin(th), link.CeilingHeight))
	}
	return pos
}

// StandbysFor builds standby transmitter plants for an existing primary
// installation: one plant per position, each with its own TX hardware
// identity but sharing the primary's RX assembly identity (rxSeed must be
// the primary system's seed, so every plant agrees on the receiver it
// serves). The returned plants are the HandoverOptions.Standbys input of
// core.Run.
func StandbysFor(cfg optics.LinkConfig, rxSeed int64, positions []geom.Vec3) []*link.Plant {
	plants := make([]*link.Plant, 0, len(positions))
	for i, pos := range positions {
		plants = append(plants, link.NewPlantAt(cfg, rxSeed+int64(i+1)*31, rxSeed, pos))
	}
	return plants
}
