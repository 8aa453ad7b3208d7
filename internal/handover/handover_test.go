package handover

import (
	"math"
	"testing"

	"cyclops/internal/geom"
	"cyclops/internal/link"
	"cyclops/internal/optics"
)

// deployment returns the §3 study's rig: the primary plant a System built
// from (cfg, seed) owns, plus one standby across the ceiling.
func deployment(cfg optics.LinkConfig, seed int64) []*link.Plant {
	standbys := StandbysFor(cfg, seed, []geom.Vec3{{X: 1.2, Y: 0.8, Z: link.CeilingHeight}})
	return append([]*link.Plant{link.NewPlant(cfg, seed)}, standbys...)
}

func TestStandbysForSharesReceiver(t *testing.T) {
	plants := deployment(optics.Diverging10G16mm, 2)
	primary, standby := plants[0], plants[1]
	// Same RX hardware identity as the primary.
	if primary.RXDev.Truth() != standby.RXDev.Truth() {
		t.Error("standby does not share the primary's RX device")
	}
	// Distinct TX hardware and mounts.
	if primary.TXDev.Truth() == standby.TXDev.Truth() {
		t.Error("standby shares the primary's TX hardware")
	}
	if primary.TXMountTruth().Trans == standby.TXMountTruth().Trans {
		t.Error("standby shares the primary's TX position")
	}
	// Standbys differ from each other too.
	ring := StandbysFor(optics.Diverging10G16mm, 2, RingPositions(2, 1.4))
	if ring[0].TXDev.Truth() == ring[1].TXDev.Truth() {
		t.Error("standbys share TX hardware")
	}
}

func TestRingPositionsOnCeiling(t *testing.T) {
	const spacing = 1.4
	for _, count := range []int{1, 2, 4} {
		pos := RingPositions(count, spacing)
		if len(pos) != count {
			t.Fatalf("count %d: got %d positions", count, len(pos))
		}
		for k, p := range pos {
			if p.Z != link.CeilingHeight {
				t.Errorf("count %d: position %d at height %.3f, want the ceiling %.3f", count, k, p.Z, link.CeilingHeight)
			}
			if r := math.Hypot(p.X, p.Y); math.Abs(r-spacing) > 1e-12 {
				t.Errorf("count %d: position %d at %.6f m from the primary, want %.1f", count, k, r, spacing)
			}
		}
	}
}

func TestEachTXCanServeTheHeadset(t *testing.T) {
	for i, pl := range deployment(optics.Diverging10G16mm, 3) {
		v, err := pl.OracleAlignedVoltages()
		if err != nil {
			t.Fatalf("TX %d cannot point: %v", i, err)
		}
		pl.ApplyVoltages(v)
		if p := pl.ReceivedPowerDBm(); p < pl.Config.Transceiver.SensitivityDBm {
			t.Errorf("TX %d aligned power %.1f dBm below sensitivity", i, p)
		}
	}
}
