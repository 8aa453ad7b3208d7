package arena

import (
	"reflect"
	"testing"
	"time"

	"cyclops/internal/geom"
	"cyclops/internal/handover"
	"cyclops/internal/link"
	"cyclops/internal/motion"
	"cyclops/internal/obs"
	"cyclops/internal/optics"
)

// testOpts is a small but non-degenerate venue: 32 users over 16 cells,
// short traces, hermetic registry.
func testOpts(workers int) Options {
	return Options{
		Seed:     7,
		Users:    32,
		Density:  0.5,
		TraceLen: 10 * time.Second,
		Workers:  workers,
		Registry: obs.NewRegistry(),
	}
}

func TestLayoutPartition(t *testing.T) {
	for _, users := range []int{1, 5, 16, 33, 100} {
		l := NewLayout(3, users, 0.5)
		covered := 0
		for c := 0; c < l.Cells(); c++ {
			lo, hi := l.CellUsers(c)
			if hi < lo {
				t.Fatalf("users=%d cell %d: inverted range [%d,%d)", users, c, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if l.CellOf(i) != c {
					t.Fatalf("users=%d: CellOf(%d)=%d but CellUsers(%d) claims it", users, i, l.CellOf(i), c)
				}
			}
			covered += hi - lo
		}
		if covered != users {
			t.Fatalf("users=%d: partition covers %d", users, covered)
		}
	}
}

func TestLayoutGeometry(t *testing.T) {
	l := NewLayout(3, 32, 0.5)
	if l.NX != 4 || l.NY != 4 {
		t.Fatalf("8x8m venue at 2m pitch gridded %dx%d", l.NX, l.NY)
	}
	for i := 0; i < l.Users; i++ {
		h := l.Home(i)
		if h.X < -l.W/2 || h.X > l.W/2 || h.Y < -l.D/2 || h.Y > l.D/2 {
			t.Errorf("user %d home %v outside the venue", i, h)
		}
		c := l.CellOf(i)
		tx := l.TXPos(c)
		if dx := h.X - tx.X; dx < -l.CellW/2 || dx > l.CellW/2 {
			t.Errorf("user %d home %v outside cell %d (tx %v)", i, h, c, tx)
		}
	}
	// Corner, edge, and interior cells see 2, 3, and 4 standby TXs.
	if got := l.Standbys(0); got != 2 {
		t.Errorf("corner cell standbys = %d", got)
	}
	if got := l.Standbys(1); got != 3 {
		t.Errorf("edge cell standbys = %d", got)
	}
	if got := l.Standbys(5); got != 4 {
		t.Errorf("interior cell standbys = %d", got)
	}
}

func TestNeighborsBoundedAndOrdered(t *testing.T) {
	l := NewLayout(3, 64, 1.0)
	for i := 0; i < l.Users; i++ {
		ns := l.Neighbors(i)
		if len(ns) > MaxNeighbors {
			t.Fatalf("user %d has %d neighbors", i, len(ns))
		}
		home := l.Home(i)
		last := -1.0
		for _, j := range ns {
			if j == i {
				t.Fatalf("user %d neighbors itself", i)
			}
			d := l.Home(j).Dist(home)
			if d > NeighborRadius {
				t.Fatalf("user %d neighbor %d at %.2fm", i, j, d)
			}
			if d < last {
				t.Fatalf("user %d neighbors not sorted by distance", i)
			}
			last = d
		}
	}
}

func TestOcclusionWindowsFire(t *testing.T) {
	// A user surrounded at density 1.0 must see some occlusion over a
	// minute; windows must be ordered and within the trace (plus the
	// trailing sampling step).
	l := NewLayout(7, 64, 1.0)
	total := 0
	for i := 0; i < l.Users; i++ {
		tr := l.Trace(i, time.Minute)
		tx := l.TXPos(l.CellOf(i))
		var occs []Occluder
		for _, j := range l.Neighbors(i) {
			pair := l.Occluder(j)
			occs = append(occs, pair[0], pair[1])
		}
		wins := OcclusionWindows(tx, tr.PoseAt, tr.Duration(), occs)
		prev := time.Duration(-1)
		for _, w := range wins {
			if w.Start < prev || w.End <= w.Start {
				t.Fatalf("user %d: malformed window %+v", i, w)
			}
			prev = w.End
			if w.End > tr.Duration()+OcclusionStep {
				t.Fatalf("user %d: window past trace end: %+v", i, w)
			}
		}
		total += len(wins)
	}
	if total == 0 {
		t.Fatal("no occlusion windows anywhere at density 1.0 — the crowd model is inert")
	}
}

// TestOcclusionWindowsParkedOccluder compiles the §3 handover study's
// occluder — a 0.15 m sphere parked on TX 0's path midpoint during seconds
// 10–20 of each 20 s cycle, 2 m away otherwise — over a static minute. The
// primary path gets exactly one window per cycle; the standby TX's path,
// 1.4 m across the ceiling, is never blocked.
func TestOcclusionWindowsParkedOccluder(t *testing.T) {
	const seed = 51
	cfg := optics.Diverging10G16mm
	primary := link.NewPlant(cfg, seed)
	standby := handover.StandbysFor(cfg, seed, []geom.Vec3{{X: 1.2, Y: 0.8, Z: link.CeilingHeight}})[0]
	prog := motion.Static{P: link.DefaultHeadsetPose(), Len: time.Minute}

	mid := primary.TXMountTruth().Trans.Lerp(primary.RXWorldPose().Trans, 0.5)
	away := mid.Add(geom.V(-2, -2, 0))
	occs := []Occluder{{
		Radius: 0.15,
		Path: func(t time.Duration) geom.Vec3 {
			if (t/time.Second)%20 >= 10 {
				return mid
			}
			return away
		},
	}}

	wins := OcclusionWindows(primary.TXMountTruth().Trans, prog.Pose, prog.Duration(), occs)
	if len(wins) != 3 {
		t.Fatalf("primary path: %d windows, want 3: %+v", len(wins), wins)
	}
	for k, w := range wins {
		start := time.Duration(10+20*k) * time.Second
		if w.Start != start || w.End != start+10*time.Second {
			t.Errorf("window %d = [%v, %v), want [%v, %v)", k, w.Start, w.End, start, start+10*time.Second)
		}
	}
	if got := OcclusionWindows(standby.TXMountTruth().Trans, prog.Pose, prog.Duration(), occs); len(got) != 0 {
		t.Errorf("standby path blocked: %+v", got)
	}
}

func TestRunWorkerDeterminism(t *testing.T) {
	serial, err := Run(testOpts(1))
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if serial.Handovers == 0 && serial.Outages == 0 {
		t.Fatal("no occlusion events fired — determinism test is vacuous")
	}
	if serial.Served == 0 || serial.Slots == 0 || serial.Cells < 2 {
		t.Fatalf("empty or single-cell run: %+v", serial.Aggregate)
	}
	for _, workers := range []int{2, 4} {
		got, err := Run(testOpts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: Result differs from serial", workers)
		}
		if got.Metrics.Exposition() != serial.Metrics.Exposition() {
			t.Errorf("workers=%d: metrics exposition differs from serial", workers)
		}
	}
}

// TestRunCellFold pins Run's reduction: the venue result is the serial,
// cell-ordered fold of every cell's own aggregate, whatever the fan-out
// and batch boundaries.
func TestRunCellFold(t *testing.T) {
	opts := testOpts(2)
	full, err := Run(opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	l := NewLayout(opts.Seed, opts.Users, opts.Density)
	var folded Aggregate
	for c := 0; c < l.Cells(); c++ {
		folded.merge(runCell(l, opts, c))
	}
	if !reflect.DeepEqual(folded, full.Aggregate) {
		t.Error("cell-ordered fold differs from Run's aggregate")
	}
	if folded.Metrics.Exposition() != full.Metrics.Exposition() {
		t.Error("cell-ordered fold's metrics exposition differs from Run's")
	}
}

func TestUsersPerTXCap(t *testing.T) {
	opts := testOpts(2)
	opts.UsersPerTX = 1
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != res.Layout.Cells() || res.Unserved != res.Users-res.Served {
		t.Fatalf("cap=1 served %d / unserved %d over %d cells", res.Served, res.Unserved, res.Layout.Cells())
	}
}

// TestContentionSharesBackhaul: every cell of the 16-cell test venue
// owns BackhaulGbps/16 = 6.25 Gbps, so no served user's contended mean
// may exceed it (uncontended, a user would read about 23.5 × its
// availability), and two users sharing a cell must read a lower mean than
// one user alone.
func TestContentionSharesBackhaul(t *testing.T) {
	mean := map[int]float64{}
	for _, perTX := range []int{1, 2} {
		opts := testOpts(1)
		opts.UsersPerTX = perTX
		if err := opts.Validate(); err != nil {
			t.Fatal(err)
		}
		l := NewLayout(opts.Seed, opts.Users, opts.Density)
		if l.Cells() != 16 {
			t.Fatalf("test venue has %d cells, want 16", l.Cells())
		}
		share := BackhaulGbps / float64(l.Cells())
		var all Aggregate
		for c := 0; c < l.Cells(); c++ {
			a := runCell(l, opts, c)
			if a.Served < 1 || a.Served > 2 {
				t.Fatalf("perTX=%d cell %d served %d users, want 1 or 2", perTX, c, a.Served)
			}
			// With at most two served users, the best one's mean is the
			// cell's sum less the worst one's.
			best := a.GoodputSumGbps
			if a.Served == 2 {
				best -= a.MinGoodputGbps
			}
			if best > share+1e-9 {
				t.Errorf("perTX=%d cell %d: a user reads %.3f Gbps, above the %.3f Gbps cell share",
					perTX, c, best, share)
			}
			all.merge(a)
		}
		mean[perTX] = all.MeanGoodputGbps()
	}
	if mean[2] >= mean[1] {
		t.Errorf("two users per cell read %.3f Gbps, not below one user's %.3f", mean[2], mean[1])
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, bad := range []Options{
		{},
		{Users: 10},
		{Users: 10, Density: 0.5, UsersPerTX: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	o := Options{Users: 10, Density: 0.5}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.UsersPerTX != 4 || o.TraceLen != time.Minute || o.Registry == nil {
		t.Errorf("defaults wrong: %+v", o)
	}
}
