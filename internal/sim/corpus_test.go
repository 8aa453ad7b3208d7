package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/geom"
	"cyclops/internal/obs"
	"cyclops/internal/trace"
)

// testSource is a small streaming corpus for the engine tests.
func testSource(n int) trace.Source {
	return trace.Source{Seed: 11, N: n, Length: 10 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)}
}

// testChaos is a hostile-enough chaos spec to produce outages and (with a
// second TX) handovers on the short test corpus.
func testChaos() *CorpusChaos {
	p := PaperChaos25G()
	p.TXCount = 2
	p.HandoverDark = 2 * time.Millisecond
	p.StandbyBlockProb = 0.3
	return &CorpusChaos{
		Config: fault.Config{
			Occlusion:        fault.ClassConfig{PerMin: 6, MinDur: 300 * time.Millisecond, MaxDur: 500 * time.Millisecond},
			OcclusionDepthDB: [2]float64{25, 45},
			OcclusionRamp:    10 * time.Millisecond,
		},
		Seed:   21,
		Params: p,
	}
}

// runOpts builds engine options that stay out of the process registry.
func runOpts(workers int, chaos *CorpusChaos) CorpusOptions {
	return CorpusOptions{
		Workers:      workers,
		ShardSize:    8,
		KeepPerTrace: true,
		Chaos:        chaos,
		Registry:     obs.NewRegistry(),
	}
}

func TestRunCorpusWorkerDeterminism(t *testing.T) {
	src := testSource(40)
	for _, chaos := range []*CorpusChaos{nil, testChaos()} {
		serial, err := RunCorpus(src, runOpts(1, chaos))
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		if serial.Traces != 40 || serial.Slots == 0 {
			t.Fatalf("serial aggregate empty: %+v", serial.CorpusAggregate)
		}
		if chaos != nil && (serial.Outages == 0 || serial.Handovers == 0) {
			t.Fatalf("chaos run fired %d outages / %d handovers — test is vacuous",
				serial.Outages, serial.Handovers)
		}
		for _, workers := range []int{0, 2, 4, 8} {
			got, err := RunCorpus(src, runOpts(workers, chaos))
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("workers=%d chaos=%v: CorpusRunResult differs from serial", workers, chaos != nil)
			}
			if got.Metrics.Exposition() != serial.Metrics.Exposition() {
				t.Errorf("workers=%d chaos=%v: metrics exposition differs from serial", workers, chaos != nil)
			}
		}
	}
}

// TestRunCorpusResume proves a run interrupted at every possible shard
// boundary and resumed stitches back to the uninterrupted result — the
// aggregate, the checkpoint, and the concatenated per-trace slices alike.
func TestRunCorpusResume(t *testing.T) {
	src := testSource(30) // 4 shards of 8
	full, err := RunCorpus(src, runOpts(2, testChaos()))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if !full.Checkpoint.Done {
		t.Fatal("full run not Done")
	}
	for _, window := range []int{1, 2, 3} {
		var per []ChaosTraceResult
		ck := Checkpoint{}
		for !ck.Done {
			opts := runOpts(2, testChaos())
			opts.Resume = ck
			opts.MaxShards = window
			part, err := RunCorpus(src, opts)
			if err != nil {
				t.Fatalf("window=%d: %v", window, err)
			}
			per = append(per, part.PerTrace...)
			ck = part.Checkpoint
		}
		if !reflect.DeepEqual(ck, full.Checkpoint) {
			t.Errorf("window=%d: stitched checkpoint differs from uninterrupted run", window)
		}
		if !reflect.DeepEqual(per, full.PerTrace) {
			t.Errorf("window=%d: stitched per-trace results differ from uninterrupted run", window)
		}
		if ck.Agg.Metrics.Exposition() != full.Metrics.Exposition() {
			t.Errorf("window=%d: stitched metrics exposition differs", window)
		}
	}
}

// TestRunCorpusCancel pins the cancellation contract: a canceled run
// returns ctx's error with a usable checkpoint, and resuming from it
// reproduces the uninterrupted result.
func TestRunCorpusCancel(t *testing.T) {
	src := testSource(30)
	full, err := RunCorpus(src, runOpts(2, nil))
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := runOpts(2, nil)
	opts.Context = ctx
	part, err := RunCorpus(src, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if part.Checkpoint.Done {
		t.Fatal("canceled run claims Done")
	}
	resume := runOpts(2, nil)
	resume.Resume = part.Checkpoint
	rest, err := RunCorpus(src, resume)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(rest.Checkpoint, full.Checkpoint) {
		t.Error("resumed-after-cancel checkpoint differs from uninterrupted run")
	}
}

func TestCorpusOptionsValidate(t *testing.T) {
	var o CorpusOptions
	if err := o.Validate(); err != nil {
		t.Fatalf("zero options: %v", err)
	}
	if o.Params != Paper25G() || o.ShardSize != DefaultShardSize || o.Context == nil || o.Registry != obs.Default() {
		t.Errorf("zero-options defaults wrong: %+v", o)
	}
	chaos := CorpusOptions{Chaos: &CorpusChaos{}}
	if err := chaos.Validate(); err != nil {
		t.Fatalf("zero chaos: %v", err)
	}
	if chaos.Chaos.Params.BlockAttenDB != PaperChaos25G().BlockAttenDB {
		t.Errorf("zero chaos params not defaulted: %+v", chaos.Chaos.Params)
	}
	inherit := CorpusOptions{Chaos: &CorpusChaos{Params: ChaosParams{BlockAttenDB: 7}}}
	if err := inherit.Validate(); err != nil {
		t.Fatalf("inherit: %v", err)
	}
	if inherit.Chaos.Params.AvailabilityParams != Paper25G() || inherit.Chaos.Params.BlockAttenDB != 7 {
		t.Errorf("chaos availability params not inherited: %+v", inherit.Chaos.Params)
	}
	for _, bad := range []CorpusOptions{
		{ShardSize: -1},
		{MaxShards: -1},
		{Resume: Checkpoint{NextShard: -1}},
		{Chaos: &CorpusChaos{Medium: numMedia}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	for m, want := range map[Medium]string{FSO: "fso", MmWave: "mmwave", Hybrid: "hybrid", numMedia: "sim.Medium(3)"} {
		if got := m.String(); got != want {
			t.Errorf("Medium(%d).String() = %q, want %q", uint8(m), got, want)
		}
	}
}

// A CorpusChaos shared across runs must not carry one run's defaulted
// slot params into the next: the second run here tightens the lateral
// tolerance to 1 mm, so it must match a run with a fresh CorpusChaos, not
// the first run.
func TestRunCorpusReusedChaos(t *testing.T) {
	src := testSource(4)
	tight := Paper25G()
	tight.LateralTolerance = 1e-3
	run := func(chaos *CorpusChaos, params AvailabilityParams) CorpusRunResult {
		opts := runOpts(1, chaos)
		opts.Params = params
		res, err := RunCorpus(src, opts)
		if err != nil {
			t.Fatalf("RunCorpus: %v", err)
		}
		return res
	}
	newChaos := func() *CorpusChaos {
		return &CorpusChaos{Seed: 3, Params: ChaosParams{BlockAttenDB: 10, Relock: 3 * time.Second}}
	}
	shared := newChaos()
	before := *shared
	loose := run(shared, Paper25G())
	reused := run(shared, tight)
	fresh := run(newChaos(), tight)
	if *shared != before {
		t.Errorf("RunCorpus wrote the caller's CorpusChaos: %+v, was %+v", *shared, before)
	}
	if reused.MeanOnFraction != fresh.MeanOnFraction {
		t.Errorf("reused CorpusChaos reads mean-on %.4f, fresh %.4f (first run %.4f)",
			reused.MeanOnFraction, fresh.MeanOnFraction, loose.MeanOnFraction)
	}
	if fresh.MeanOnFraction == loose.MeanOnFraction {
		t.Fatal("tightened tolerance did not change the run — scenario too weak")
	}
}

// FuzzCorpusOptionsValidate: Validate never panics; options it accepts
// carry a positive ShardSize, a Context, a Registry and non-zero Params;
// and the caller's CorpusChaos is left untouched either way.
func FuzzCorpusOptionsValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, shard, maxShards, next, workers int, withChaos bool, medium uint8, blockDB, relockMs, lateralMm int8) {
		opts := CorpusOptions{ShardSize: shard, MaxShards: maxShards, Workers: workers,
			Resume: Checkpoint{NextShard: next}}
		opts.Params.LateralTolerance = float64(lateralMm) * 1e-3
		var chaos, before CorpusChaos
		if withChaos {
			chaos = CorpusChaos{Seed: int64(shard), Medium: Medium(medium), Params: ChaosParams{
				BlockAttenDB: float64(blockDB),
				Relock:       time.Duration(relockMs) * 100 * time.Millisecond,
			}}
			before = chaos
			opts.Chaos = &chaos
		}
		err := opts.Validate()
		if chaos != before {
			t.Fatalf("Validate wrote the caller's CorpusChaos: %+v, was %+v", chaos, before)
		}
		if err != nil {
			return
		}
		if opts.ShardSize < 1 || opts.Context == nil || opts.Registry == nil || opts.Params == (AvailabilityParams{}) {
			t.Fatalf("accepted options left undefaulted: %+v", opts)
		}
		if withChaos && (opts.Chaos.Params == (ChaosParams{}) ||
			opts.Chaos.Params.AvailabilityParams == (AvailabilityParams{})) {
			t.Fatalf("accepted chaos params left undefaulted: %+v", opts.Chaos.Params)
		}
	})
}

// TestSimulateTraceChaosSlotsSink checks the run-length sink tiles the
// trace: runs arrive in slot order, each at least one slot long, covering
// every slot exactly once with verdicts that total exactly OffSlots.
func TestSimulateTraceChaosSlotsSink(t *testing.T) {
	tr := testSource(1).At(0)
	spec := testChaos()
	sched := fault.Plan(spec.Config, spec.Seed, tr.Duration())
	var runs, covered, offs int
	res := SimulateTraceChaos(tr, spec.Params, &sched, nil, func(slot, n int, off bool) {
		if slot != covered || n < 1 {
			t.Fatalf("sink run (%d, %d) after %d slots — not a tiling", slot, n, covered)
		}
		runs++
		covered += n
		if off {
			offs += n
		}
	})
	if covered != res.Slots {
		t.Errorf("sink runs covered %d slots of %d", covered, res.Slots)
	}
	if runs >= res.Slots {
		t.Errorf("sink fired %d runs over %d slots — no run-length coalescing", runs, res.Slots)
	}
	if offs != res.OffSlots {
		t.Errorf("sink saw %d off slots, result has %d", offs, res.OffSlots)
	}
	plain := SimulateTraceChaos(tr, spec.Params, &sched, nil, nil)
	if !reflect.DeepEqual(plain, res) {
		t.Error("sink changed the simulation result")
	}
}

// TestRunCorpusMemoryBounded is the streaming claim, measured: a 10×
// longer corpus run in aggregate-only mode must stay within a fixed live
// heap envelope of the small one (the engine holds O(workers·shard)
// traces, never the corpus). The run steps through Resume/MaxShards
// windows so retained state is sampled between batches, after a forced GC.
func TestRunCorpusMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming-heap measurement in -short mode")
	}
	peak := func(n int) uint64 {
		src := trace.Source{Seed: 11, N: n, Length: 2 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)}
		var peak uint64
		ck := Checkpoint{}
		for !ck.Done {
			res, err := RunCorpus(src, CorpusOptions{
				Workers:   2,
				ShardSize: 16,
				Registry:  obs.NewRegistry(),
				Resume:    ck,
				MaxShards: 4,
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			ck = res.Checkpoint
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		return peak
	}
	small := peak(160)
	big := peak(1600)
	// The envelope is generous (GC timing, -race bookkeeping) but far
	// below the ~10× growth a materialized corpus would show.
	limit := small*2 + 16<<20
	t.Logf("live heap peak: %d traces -> %d bytes, %d traces -> %d bytes (limit %d)",
		160, small, 1600, big, limit)
	if big > limit {
		t.Errorf("10x corpus peaked at %d bytes live heap, want <= %d (2x small + 16MB)", big, limit)
	}
}
