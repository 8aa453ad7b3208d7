package sim

import (
	"math"
	"time"

	"cyclops/internal/fault"
)

// ChaosParams extend the §5.4 slot model with the fault-injection
// vocabulary of internal/fault: how deep an occlusion must be to sever the
// link, and how long the transceiver takes to re-lock once light returns.
type ChaosParams struct {
	AvailabilityParams
	// BlockAttenDB is the occlusion depth (dB) at or above which the slot
	// model treats the beam as blocked. Shallower occlusions eat margin on
	// the hardware plant but keep the slot model's link alive.
	BlockAttenDB float64
	// Relock is the SFP re-lock time after an occlusion clears: the link
	// stays down that long past the fault window's end, mirroring
	// link.Monitor's RelockDelay.
	Relock time.Duration
	// TXCount is the number of ceiling transmitters serving the headset.
	// At most one transmits; the others hold pre-pointed mirror solutions
	// (make-before-break, mirroring core.Run's Handover path). Zero or
	// one: the historical single-TX model, bit for bit.
	TXCount int
	// HandoverDark is the dark time a rescued occlusion episode costs —
	// the ~2 ms realignment slew to the standby instead of the occlusion
	// plus the Relock tail (default 2 ms when TXCount > 1).
	HandoverDark time.Duration
	// StandbyBlockProb is the probability that a given standby path is
	// also blocked by the same occlusion event (each standby draws
	// independently; StandbyBlockProbForSpacing derives it from ceiling
	// placement). An episode with every standby blocked is not rescued
	// and pays the full single-TX cost.
	StandbyBlockProb float64
}

// StandbyBlockProbForSpacing estimates StandbyBlockProb from ceiling
// geometry with a sector-overlap model: the occluder (a torso/arm at
// roughly arm's length, 0.35 m across at 1 m) shadows an angular sector of
// half-angle h around the primary path as seen from the headset; a standby
// whose beam arrives θ = 2·atan(spacing / (2·1.75)) away (1.75 m is the
// nominal ceiling-to-headset height) escapes the shadow when θ exceeds the
// sector. The 2% floor models body-scale events that shadow the whole
// ceiling at once.
func StandbyBlockProbForSpacing(spacing float64) float64 {
	const floorProb = 0.02
	h := math.Atan2(0.35, 1.0)
	theta := 2 * math.Atan2(spacing/2, 1.75)
	if theta >= 2*h {
		return floorProb
	}
	p := (2*h - theta) / (2 * h)
	if p < floorProb {
		p = floorProb
	}
	return p
}

// PaperChaos25G returns Paper25G plus the chaos constants: the
// fault.BlockDB blocking threshold (the 25G budget's full margin) and the
// transceiver config's 3 s re-lock.
func PaperChaos25G() ChaosParams {
	return ChaosParams{
		AvailabilityParams: Paper25G(),
		BlockAttenDB:       fault.BlockDB,
		Relock:             3 * time.Second,
	}
}

// ChaosTraceResult is the per-trace chaos outcome: the base availability
// result plus the outage bookkeeping the supervisor tracks on the hardware
// path.
type ChaosTraceResult struct {
	TraceResult
	// Outages counts blocked episodes (occlusion plus its re-lock tail)
	// the trace suffered.
	Outages int
	// BlockedSlots counts slots lost to those episodes (a subset of
	// OffSlots; the rest are ordinary misalignment).
	BlockedSlots int
	// Handovers counts occlusion episodes rescued by a switch to a clear
	// standby TX (TXCount > 1 only): those cost HandoverDark of blocked
	// time instead of an outage.
	Handovers int
	// Failovers / Readmits / SecondarySlots / MinSecondaryDwell are the
	// hybrid link policy's bookkeeping (SimulateTraceHybrid only; zero on
	// every other path): medium switches, time delivered traffic rode the
	// mmWave secondary, and the shortest completed secondary dwell.
	Failovers         int
	Readmits          int
	SecondarySlots    int
	MinSecondaryDwell time.Duration
	// MeanGoodputGbps is the delivered goodput averaged over all slots
	// (hybrid and mmWave-only arms; zero on the plain FSO paths, which
	// report availability only).
	MeanGoodputGbps float64
}
