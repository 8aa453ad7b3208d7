package core

import (
	"reflect"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/handover"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/optics"
)

// occlusionAt builds a deep occlusion window on a schedule.
func occlusionAt(start, end time.Duration) fault.Window {
	return fault.Window{
		Kind: fault.Occlusion, Start: start, End: end,
		DepthDB: 40, Ramp: 10 * time.Millisecond,
	}
}

// A primary-path occlusion with a clear standby is rescued by one
// make-before-break switch: the monitor's holdover rides through the ~2 ms
// slew, so the SFP never unlocks and the 3 s re-lock is never paid.
func TestRunHandoverRescuesOcclusion(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 5, handover.RingPositions(1, 1.4))
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{
		occlusionAt(2*time.Second, 2*time.Second+300*time.Millisecond),
	}}
	res, err := s.Run(RunOptions{
		Program:  motion.Static{P: link.DefaultHeadsetPose(), Len: 8 * time.Second},
		Faults:   sched,
		Handover: &HandoverOptions{Standbys: standbys},
	})
	if err != nil {
		t.Fatalf("handover run aborted: %v", err)
	}
	if res.Handovers < 2 {
		t.Errorf("Handovers = %d, want ≥ 2 (switch out + failback)", res.Handovers)
	}
	// The whole point: the same occlusion that costs the single-TX run a
	// multi-second outage (TestRunMidRunOcclusionRecovers) never unlocks
	// the SFP here.
	if res.Outages != 0 {
		t.Errorf("Outages = %d, want 0 (handover should pre-empt the outage)", res.Outages)
	}
	if res.UpFraction != 1 {
		t.Errorf("UpFraction = %v, want 1 (holdover must carry the switch)", res.UpFraction)
	}
	if res.DegradedTicks != 0 {
		t.Errorf("DegradedTicks = %d, want 0", res.DegradedTicks)
	}
	if last := res.Samples[len(res.Samples)-1]; !last.Up || !last.PowerOK {
		t.Errorf("run did not end healthy: %+v", last)
	}
	// Failback restored the primary, and Run's defer restored s.Plant.
	exp := res.Metrics.Exposition()
	for _, want := range []string{"cyclops_handover_total 2", "cyclops_handover_seconds_count"} {
		if !contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Bit-reproducible, like every faulted run.
	s2 := oracleSystem(optics.Diverging10G16mm, 5)
	standbys2 := handover.StandbysFor(optics.Diverging10G16mm, 5, handover.RingPositions(1, 1.4))
	res2, err := s2.Run(RunOptions{
		Program:  motion.Static{P: link.DefaultHeadsetPose(), Len: 8 * time.Second},
		Faults:   sched,
		Handover: &HandoverOptions{Standbys: standbys2},
	})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(res2, res) {
		t.Error("handover run not reproducible")
	}
}

// Run restores the System's plant (the primary) after a handover run, even
// when the run ends while a standby is active.
func TestRunRestoresPrimaryPlant(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	primary := s.Plant
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 5, handover.RingPositions(1, 1.4))
	// Occlusion runs to the end of the program: no failback.
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{
		occlusionAt(1*time.Second, 4*time.Second),
	}}
	res, err := s.Run(RunOptions{
		Program:  motion.Static{P: link.DefaultHeadsetPose(), Len: 3 * time.Second},
		Faults:   sched,
		Handover: &HandoverOptions{Standbys: standbys},
	})
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if res.Handovers != 1 {
		t.Errorf("Handovers = %d, want 1 (no failback before the run ends)", res.Handovers)
	}
	if s.Plant != primary {
		t.Error("System.Plant not restored to the primary after the run")
	}
	if standbys[0].AttenuationDB() != 0 {
		t.Error("standby fault surface not cleaned after the run")
	}
}

// When every TX path is blocked there is nothing to switch to: no handover
// fires, and the episode runs through the ordinary outage machinery
// (REACQUIRING → DEGRADED), exactly like a single-TX run.
func TestRunHandoverAllPathsBlocked(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 5)
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 5, handover.RingPositions(1, 1.4))
	win := []fault.Window{occlusionAt(2*time.Second, 2*time.Second+300*time.Millisecond)}
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 8 * time.Second},
		Faults:  &fault.Schedule{Seed: 1, Windows: win},
		Handover: &HandoverOptions{
			Standbys:      standbys,
			StandbyFaults: []*fault.Schedule{{Seed: 2, Windows: win}},
		},
	})
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if res.Handovers != 0 {
		t.Errorf("Handovers = %d, want 0 (no clear candidate existed)", res.Handovers)
	}
	if res.Outages != 1 {
		t.Errorf("Outages = %d, want 1", res.Outages)
	}
	if res.DegradedTicks == 0 {
		t.Error("all-blocked episode never degraded")
	}
}

// Handover option validation: standbys are required, a fault schedule must
// be armed, StandbyFaults must match the standby count, and every standby
// schedule passes the same window checks as the primary's.
func TestRunOptionsValidateHandover(t *testing.T) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 1, handover.RingPositions(1, 1.4))
	sched := &fault.Schedule{Seed: 1, Windows: []fault.Window{
		occlusionAt(100*time.Millisecond, 200*time.Millisecond),
	}}
	cases := []struct {
		name string
		opts RunOptions
	}{
		{"no standbys", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{}}},
		{"no faults", RunOptions{Program: prog, Handover: &HandoverOptions{Standbys: standbys}}},
		{"mismatched standby faults", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{
			Standbys:      standbys,
			StandbyFaults: []*fault.Schedule{{}, {}},
		}}},
		{"malformed standby window", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{
			Standbys: standbys,
			StandbyFaults: []*fault.Schedule{{Windows: []fault.Window{
				occlusionAt(500*time.Millisecond, 100*time.Millisecond),
			}}},
		}}},
		{"unsorted standby windows", RunOptions{Program: prog, Faults: sched, Handover: &HandoverOptions{
			Standbys: standbys,
			StandbyFaults: []*fault.Schedule{{Windows: []fault.Window{
				occlusionAt(800*time.Millisecond, 900*time.Millisecond),
				occlusionAt(100*time.Millisecond, 500*time.Millisecond),
			}}},
		}}},
	}
	for _, c := range cases {
		s := oracleSystem(optics.Diverging10G16mm, 1)
		if _, err := s.Run(c.opts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzRunOptionsValidate feeds Validate arbitrary primary and standby fault
// windows. Validate must never panic, and whatever it accepts must be a
// schedule Schedule.At reads correctly: every window has 0 ≤ Start ≤ End,
// in Start order. Each window is four bytes — a signed 16-bit start in
// milliseconds, a signed 8-bit span in 4 ms units, a kind — and the first
// split%17 windows go to the primary path, the rest to the standby.
func FuzzRunOptionsValidate(f *testing.F) {
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Second}
	standbys := handover.StandbysFor(optics.Diverging10G16mm, 1, handover.RingPositions(1, 1.4))
	f.Fuzz(func(t *testing.T, split uint8, windows []byte) {
		var primary, standby fault.Schedule
		for k := 0; len(windows) >= 4 && k < 32; k++ {
			b := windows[:4]
			windows = windows[4:]
			start := time.Duration(int16(uint16(b[0])<<8|uint16(b[1]))) * time.Millisecond
			w := fault.Window{
				Kind:    fault.Kind(b[3] % 7),
				Start:   start,
				End:     start + time.Duration(int8(b[2]))*4*time.Millisecond,
				DepthDB: 40,
			}
			if k < int(split%17) {
				primary.Windows = append(primary.Windows, w)
			} else {
				standby.Windows = append(standby.Windows, w)
			}
		}
		opts := RunOptions{Program: prog, Faults: &primary, Handover: &HandoverOptions{
			Standbys:      standbys,
			StandbyFaults: []*fault.Schedule{&standby},
		}}
		if opts.Validate() != nil {
			return
		}
		for k, wins := range [][]fault.Window{primary.Windows, standby.Windows} {
			for i, w := range wins {
				if w.Start < 0 || w.End < w.Start {
					t.Fatalf("path %d: accepted window %d outside 0 ≤ Start ≤ End: %+v", k, i, w)
				}
				if i > 0 && w.Start < wins[i-1].Start {
					t.Fatalf("path %d: accepted window %d out of Start order: %v after %v",
						k, i, w.Start, wins[i-1].Start)
				}
			}
		}
	})
}

// The closed-interval fencepost of core.Run is deliberate and load-bearing:
// a run of duration D at tick T produces D/T + 1 samples, landing on both
// endpoints. internal/sim uses the half-open D/T convention instead — do
// not unify them; every published RunResult was produced by this loop
// shape.
func TestRunClosedLoopConvention(t *testing.T) {
	s := oracleSystem(optics.Diverging10G16mm, 3)
	res, err := s.Run(RunOptions{
		Program: motion.Static{P: link.DefaultHeadsetPose(), Len: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Samples); got != 101 {
		t.Fatalf("samples = %d, want 101 (closed [0, dur] at 1 ms)", got)
	}
	if first := res.Samples[0].At; first != 0 {
		t.Errorf("first sample at %v, want 0", first)
	}
	if last := res.Samples[100].At; last != 100*time.Millisecond {
		t.Errorf("last sample at %v, want 100ms (the closed endpoint)", last)
	}
}
