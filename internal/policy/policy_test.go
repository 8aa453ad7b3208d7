package policy

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"cyclops/internal/obs"
)

const ms = time.Millisecond

// drive feeds one sample per millisecond from a health string: 'h' is
// healthy, 'b' is breaching. Returns the state after each sample.
func drive(c *Controller, pattern string) []State {
	out := make([]State, len(pattern))
	for i, ch := range pattern {
		out[i] = c.Observe(time.Duration(i)*ms, ms, ch == 'h')
	}
	return out
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		Primary:        "PRIMARY",
		BreachPending:  "BREACH-PENDING",
		Secondary:      "SECONDARY",
		ReadmitPending: "READMIT-PENDING",
		State(9):       "policy.State(9)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", uint8(st), got, want)
		}
	}
	if Primary.OnSecondary() || BreachPending.OnSecondary() {
		t.Error("primary-side states must not report OnSecondary")
	}
	if !Secondary.OnSecondary() || !ReadmitPending.OnSecondary() {
		t.Error("secondary-side states must report OnSecondary")
	}
}

// TestTransitionTable pins the full state machine against hand-computed
// sequences. Hysteresis windows are boundary-inclusive: a breach clock
// started at t fails over at t+BreachAfter exactly.
func TestTransitionTable(t *testing.T) {
	cases := []struct {
		name    string
		breach  time.Duration
		clear   time.Duration
		pattern string
		want    []State
	}{
		{
			name:    "sustained breach fails over at the boundary",
			breach:  3 * ms,
			clear:   2 * ms,
			pattern: "hbbbb",
			// b@1 starts the clock; b@4 is 3ms after → SECONDARY.
			want: []State{Primary, BreachPending, BreachPending, BreachPending, Secondary},
		},
		{
			name:    "transient breach rides through",
			breach:  3 * ms,
			clear:   2 * ms,
			pattern: "hbbhh",
			want:    []State{Primary, BreachPending, BreachPending, Primary, Primary},
		},
		{
			name:    "clear window matures at the boundary",
			breach:  ms,
			clear:   3 * ms,
			pattern: "bbhhhh",
			// b@0 starts clock, b@1 fails over; h@2 starts clear clock,
			// h@5 is 3ms after → PRIMARY.
			want: []State{BreachPending, Secondary, ReadmitPending, ReadmitPending, ReadmitPending, Primary},
		},
		{
			name:    "breach during clear window restarts it",
			breach:  ms,
			clear:   3 * ms,
			pattern: "bbhhbhhhh",
			want: []State{BreachPending, Secondary, ReadmitPending, ReadmitPending,
				Secondary, ReadmitPending, ReadmitPending, ReadmitPending, Primary},
		},
		{
			name:    "paper windows ride through a short breach",
			breach:  BreachAfter,
			clear:   ClearAfter,
			pattern: "hbh",
			// BreachAfter is 50ms, far beyond this trace.
			want: []State{Primary, BreachPending, Primary},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := drive(newController(tc.breach, tc.clear, nil), tc.pattern)
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("sample %d (%c): state %v, want %v (full: %v)",
						i, tc.pattern[i], got[i], tc.want[i], got)
				}
			}
		})
	}
}

// TestImmediateWindows: explicit sub-millisecond windows give
// immediate transitions (boundary-inclusive with a zero-length clock).
func TestImmediateWindows(t *testing.T) {
	c := newController(time.Nanosecond, time.Nanosecond, nil)
	// One nanosecond never elapses on a 1ms grid... but the clock starts
	// at the first breach sample, so the *next* sample matures it.
	got := drive(c, "bbhh")
	want := []State{BreachPending, Secondary, ReadmitPending, Primary}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: state %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestNoFlapDwellFloor: every completed dwell is at least ClearAfter, for
// arbitrary breach patterns — the structural no-flap guarantee.
func TestNoFlapDwellFloor(t *testing.T) {
	const clear = 5 * ms
	// A nasty pattern: short breaches, short clears, repeated.
	pattern := strings.Repeat("bbbbhhbhhhhhhb", 20)
	c := newController(2*ms, clear, nil)
	drive(c, pattern)
	if c.Failovers() == 0 || c.Readmits() == 0 {
		t.Fatalf("pattern must exercise both transitions: failovers=%d readmits=%d",
			c.Failovers(), c.Readmits())
	}
	if d := c.MinSecondaryDwell(); d < clear {
		t.Fatalf("min dwell %v below clear window %v — policy flapped", d, clear)
	}
}

func TestCountersAndSecondaryTime(t *testing.T) {
	c := newController(ms, 2*ms, nil)
	// b@0 clock, b@1 → SECONDARY (2 secondary samples: 1,2? walk it):
	// samples: b0=BREACH, b1=SECONDARY, b2=SECONDARY, h3=READMIT,
	// h4=READMIT, h5=PRIMARY. OnSecondary at 1,2,3,4 → 4ms.
	drive(c, "bbbhhh")
	if c.Failovers() != 1 || c.Readmits() != 1 {
		t.Fatalf("failovers=%d readmits=%d, want 1/1", c.Failovers(), c.Readmits())
	}
	if got := c.SecondaryTime(); got != 4*ms {
		t.Fatalf("SecondaryTime = %v, want 4ms", got)
	}
	// Dwell: failed over at t=1ms, readmitted at t=5ms.
	if got := c.MinSecondaryDwell(); got != 4*ms {
		t.Fatalf("MinSecondaryDwell = %v, want 4ms", got)
	}
	if c.State() != Primary {
		t.Fatalf("final state %v, want PRIMARY", c.State())
	}
}

func TestNoDwellBeforeFirstReadmit(t *testing.T) {
	c := newController(ms, 2*ms, nil)
	drive(c, "bbb")
	if got := c.MinSecondaryDwell(); got != 0 {
		t.Fatalf("MinSecondaryDwell with no completed dwell = %v, want 0", got)
	}
}

func TestMetricsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c := newController(ms, 2*ms, m)
	drive(c, "bbbhhh")
	exp := reg.Exposition()
	// Replicate the counter's accumulation order so the float compare is
	// exact (four Add(0.001) calls, not one Add(0.004)).
	var secs float64
	for i := 0; i < 4; i++ {
		secs += ms.Seconds()
	}
	for _, want := range []string{
		"cyclops_policy_failover_total 1",
		"cyclops_policy_readmit_total 1",
		"cyclops_policy_secondary_seconds " + strconv.FormatFloat(secs, 'g', -1, 64),
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
	if !strings.Contains(exp, "cyclops_policy_secondary_dwell_seconds_count 1") {
		t.Errorf("dwell histogram not observed:\n%s", exp)
	}
}

func TestNilMetricsSafe(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatal("NewMetrics(nil) must return nil")
	}
	c := newController(ms, ms, nil)
	drive(c, "bbbhhbbhh") // exercise every transition with nil metrics
}

// TestDeterminism: two controllers fed the same sequence agree exactly.
func TestDeterminism(t *testing.T) {
	pattern := strings.Repeat("bbhbhhhbbbbhhhhhh", 50)
	a := drive(newController(3*ms, 4*ms, nil), pattern)
	b := drive(newController(3*ms, 4*ms, nil), pattern)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// FuzzPolicyController drives New's controller (the BreachAfter and
// ClearAfter windows) at 1 ms ticks through alternating health runs. The
// first byte picks the starting health; each later byte b is a run of
// 1+4·b ticks, so runs straddle both windows. Invariants: no failover
// before BreachAfter of sustained breach, every completed dwell at least
// ClearAfter, at most one failover awaiting its re-admission, and
// SecondaryTime exactly the secondary ticks times the tick.
func FuzzPolicyController(f *testing.F) {
	f.Fuzz(func(t *testing.T, runs []byte) {
		if len(runs) < 2 {
			return
		}
		if len(runs) > 257 {
			runs = runs[:257]
		}
		c := New(nil)
		healthy := runs[0]&1 == 1
		var at, failedAt time.Duration
		breachSince := time.Duration(-1) // start of the current unhealthy run
		var secondaryTicks int
		prev := c.State()
		for _, b := range runs[1:] {
			for n := 1 + 4*int(b); n > 0; n-- {
				if healthy {
					breachSince = -1
				} else if breachSince < 0 {
					breachSince = at
				}
				st := c.Observe(at, ms, healthy)
				if st == Secondary && !prev.OnSecondary() {
					if at-breachSince < BreachAfter {
						t.Fatalf("failover at %v after only %v of breach (BreachAfter %v)",
							at, at-breachSince, BreachAfter)
					}
					failedAt = at
				}
				if st == Primary && prev.OnSecondary() {
					if dwell := at - failedAt; dwell < ClearAfter {
						t.Fatalf("readmit at %v after a %v dwell (ClearAfter %v)", at, dwell, ClearAfter)
					}
				}
				if st.OnSecondary() {
					secondaryTicks++
				}
				if d := c.Failovers() - c.Readmits(); d < 0 || d > 1 {
					t.Fatalf("at %v: %d failovers vs %d readmits", at, c.Failovers(), c.Readmits())
				}
				prev = st
				at += ms
			}
			healthy = !healthy
		}
		if got, want := c.SecondaryTime(), time.Duration(secondaryTicks)*ms; got != want {
			t.Fatalf("SecondaryTime %v, want %d ticks = %v", got, secondaryTicks, want)
		}
		if c.Readmits() > 0 && c.MinSecondaryDwell() < ClearAfter {
			t.Fatalf("MinSecondaryDwell %v below ClearAfter %v", c.MinSecondaryDwell(), ClearAfter)
		}
	})
}
