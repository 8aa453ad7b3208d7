package sim

import (
	"reflect"
	"runtime"
	"sync"
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

// testShard cuts the small test corpora into several shards, so the
// engine tests fold across shard boundaries.
const testShard = 8

// runOpts builds engine options that stay out of the process registry.
func runOpts(workers int, chaos *CorpusChaos) CorpusOptions {
	return CorpusOptions{
		Workers:      workers,
		KeepPerTrace: true,
		Chaos:        chaos,
		Registry:     obs.NewRegistry(),
	}
}

func TestRunCorpusWorkerDeterminism(t *testing.T) {
	src := testSource(40)
	for _, chaos := range []*CorpusChaos{nil, testChaos()} {
		serial, err := runCorpus(src, runOpts(1, chaos), testShard)
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
			got, err := runCorpus(src, runOpts(workers, chaos), testShard)
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

// TestRunCorpusShardFold proves the shard fold is seamless: cutting the
// corpus at any shard width — one trace per shard, a width that leaves a
// partial last shard, several full shards, a single shard — yields the
// same per-trace results and the same aggregate. Only the metrics
// snapshot is left out: its histogram float sums fold shard by shard, so
// their last bit may depend on the width.
func TestRunCorpusShardFold(t *testing.T) {
	src := testSource(30)
	fold := func(shard int) CorpusRunResult {
		res, err := runCorpus(src, runOpts(2, testChaos()), shard)
		if err != nil {
			t.Fatalf("shard=%d: %v", shard, err)
		}
		return res
	}
	whole := fold(shardSize)
	if whole.Traces != 30 || len(whole.PerTrace) != 30 || whole.Outages == 0 {
		t.Fatalf("reference run is vacuous: %+v", whole.CorpusAggregate)
	}
	whole.Metrics = obs.Snapshot{}
	for _, shard := range []int{1, 7, testShard} {
		got := fold(shard)
		if !reflect.DeepEqual(got.PerTrace, whole.PerTrace) {
			t.Errorf("shard=%d: per-trace results differ from the one-shard run", shard)
		}
		got.Metrics = obs.Snapshot{}
		if !reflect.DeepEqual(got.CorpusAggregate, whole.CorpusAggregate) {
			t.Errorf("shard=%d: aggregate %+v, one-shard run %+v", shard, got.CorpusAggregate, whole.CorpusAggregate)
		}
	}
}

func TestCorpusOptionsValidate(t *testing.T) {
	var o CorpusOptions
	if err := o.Validate(); err != nil {
		t.Fatalf("zero options: %v", err)
	}
	if o.Params != Paper25G() || o.Registry != obs.Default() {
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
	if bad := (CorpusOptions{Chaos: &CorpusChaos{Medium: numMedia}}); bad.Validate() == nil {
		t.Errorf("Validate accepted an unknown medium: %+v", bad.Chaos)
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
// carry a non-negative Workers, a Registry and non-zero Params; and the
// caller's CorpusChaos is left untouched either way.
func FuzzCorpusOptionsValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, workers int, withChaos bool, medium uint8, blockDB, relockMs, lateralMm int8) {
		opts := CorpusOptions{Workers: workers}
		opts.Params.LateralTolerance = float64(lateralMm) * 1e-3
		var chaos, before CorpusChaos
		if withChaos {
			chaos = CorpusChaos{Seed: int64(workers), Medium: Medium(medium), Params: ChaosParams{
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
		if opts.Workers < 0 || opts.Registry == nil || opts.Params == (AvailabilityParams{}) {
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

// heapProbe is a trace.Source that samples the live heap from inside a
// corpus run: every every-th trace request forces a GC and records
// HeapAlloc, while the workers hold their in-flight shards. It keeps the
// engine's AtInto buffer-reuse path.
type heapProbe struct {
	trace.Source
	every int

	mu   sync.Mutex
	peak uint64
}

func (p *heapProbe) AtInto(i int, buf []trace.Sample) trace.Trace {
	if i%p.every == 0 {
		p.sample()
	}
	return p.Source.AtInto(i, buf)
}

func (p *heapProbe) sample() {
	p.mu.Lock()
	defer p.mu.Unlock()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > p.peak {
		p.peak = ms.HeapAlloc
	}
}

// TestRunCorpusMemoryBounded is the streaming claim, measured: a 10×
// longer corpus run in aggregate-only mode must stay within a fixed live
// heap envelope of the small one (the engine holds O(workers·shard)
// traces, never the corpus). The heap is sampled after a forced GC every
// 16th trace during the run, and once more after it returns.
func TestRunCorpusMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming-heap measurement in -short mode")
	}
	peak := func(n int) uint64 {
		probe := &heapProbe{
			Source: trace.Source{Seed: 11, N: n, Length: 2 * time.Second, Origin: geom.V(0.35, 0.25, 1.0)},
			every:  16,
		}
		res, err := RunCorpus(probe, CorpusOptions{Workers: 2, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Traces != n {
			t.Fatalf("n=%d: ran %d traces", n, res.Traces)
		}
		probe.sample()
		return probe.peak
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
