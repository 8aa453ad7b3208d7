// The streaming corpus engine: RunCorpus is the one corpus entry point,
// clean or under fault injection. A corpus is an indexed CorpusSource —
// traces are produced on demand, never materialized as a whole — cut
// into fixed-size shards that fan out through parallel.Map and reduce
// serially, in shard order, into a running aggregate. The engine's contract:
//
//   - bit-identical results for any worker count (the shard partition is
//     fixed, never a function of the worker count, and every reduction
//     happens serially in shard order);
//   - memory bounded: live heap is O(workers · shard), independent of
//     corpus length, unless KeepPerTrace asks for the full per-trace slice.
package sim

import (
	"fmt"
	"time"

	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/parallel"
	"cyclops/internal/trace"
)

// CorpusSource is an indexed stream of traces. At must be a pure function
// of i — the engine calls it from worker goroutines. trace.Source
// generates the §5.4 synthetic corpus this way; TraceSlice adapts an
// already-materialized slice.
type CorpusSource interface {
	// Len is the corpus size.
	Len() int
	// At returns trace i (0 ≤ i < Len). Must be pure and safe for
	// concurrent calls.
	At(i int) trace.Trace
}

// ReusableSource is an optional CorpusSource refinement: AtInto is At
// with a caller-owned sample buffer, aliased by the returned trace when
// large enough. The engine consumes each trace fully (simulate, fold,
// drop) before asking for the next one in the shard, so runShard keeps a
// single buffer per shard and threads it through every AtInto call —
// turning ~shardSize per-trace sample allocations (and their clears)
// into one. trace.Source implements it; sources that don't silently get
// the plain At path.
type ReusableSource interface {
	CorpusSource
	// AtInto is At with a reusable buffer. Like At it must be pure in i
	// and safe for concurrent calls (distinct buffers).
	AtInto(i int, buf []trace.Sample) trace.Trace
}

// TraceSlice adapts a materialized []trace.Trace to CorpusSource.
type TraceSlice []trace.Trace

// Len returns the corpus size.
func (s TraceSlice) Len() int { return len(s) }

// At returns trace i.
func (s TraceSlice) At(i int) trace.Trace { return s[i] }

// Materialize realizes a source as a slice, generating traces across the
// worker pool (≤ 0 means the parallel package default). Use it when an
// experiment reuses the same corpus for several sweep cells; for a single
// pass, stream the source through RunCorpus instead.
func Materialize(src CorpusSource, workers int) []trace.Trace {
	return parallel.Map(src.Len(), workers, src.At)
}

// CorpusChaos arms fault injection on a corpus run: trace i's schedule is
// fault.Plan(Config, Seed + 7919·i, trace duration) — independent faults
// per trace, the whole corpus a pure function of (Config, Seed).
type CorpusChaos struct {
	// Config sets the per-class fault rates and durations.
	Config fault.Config
	// Seed derives every per-trace schedule.
	Seed int64
	// Params are the chaos slot-model constants (blocking threshold,
	// re-lock, TX count, handover). The run defaults a zero value to
	// PaperChaos25G and a zero embedded AvailabilityParams to the run's
	// Params, on its own copy — the caller's CorpusChaos is never written.
	Params ChaosParams
	// Medium picks the slot model each trace runs (default FSO).
	Medium Medium
}

// Medium selects the link a chaos corpus arm simulates.
type Medium uint8

const (
	// FSO runs the plain chaos slot model (SimulateTraceChaos).
	FSO Medium = iota
	// MmWave runs the mmWave-only arm (SimulateTraceMmWave): the fault
	// schedules still plan per trace, but only their physical-obstruction
	// component matters.
	MmWave
	// Hybrid runs the hybrid FSO + mmWave policy arm
	// (SimulateTraceHybrid).
	Hybrid

	numMedia
)

// String returns the medium's render name.
func (m Medium) String() string {
	switch m {
	case FSO:
		return "fso"
	case MmWave:
		return "mmwave"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("sim.Medium(%d)", uint8(m))
}

// CorpusOptions configures RunCorpus. The zero value is valid: Paper25G
// constants, no chaos, default workers, aggregate-only results, metrics
// merged into obs.Default().
type CorpusOptions struct {
	// Params are the §5.4 slot-model constants; the zero value means
	// Paper25G().
	Params AvailabilityParams
	// Chaos, when non-nil, runs the chaos slot model with per-trace fault
	// schedules instead of the clean one.
	Chaos *CorpusChaos
	// Workers is the fan-out width (≤ 0: the parallel package default;
	// 1: the serial reference path). Any value yields bit-identical
	// results.
	Workers int
	// KeepPerTrace retains the per-trace results (for CDFs and per-trace
	// renders). Off, the run holds only O(workers · shard) results at a
	// time — the memory-bounded mode.
	KeepPerTrace bool
	// Registry receives the corpus's merged metrics once, when the run
	// completes. nil means obs.Default(); pass a throwaway
	// obs.NewRegistry() to keep a run out of the process registry.
	Registry *obs.Registry
}

// Validate fills defaults in place and rejects malformed options. A
// non-nil Chaos is replaced by a defaulted copy, so a caller may share
// one CorpusChaos across runs and goroutines.
func (o *CorpusOptions) Validate() error {
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.Params == (AvailabilityParams{}) {
		o.Params = Paper25G()
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	if o.Chaos != nil {
		c := *o.Chaos
		if c.Medium >= numMedia {
			return fmt.Errorf("sim: unknown CorpusChaos.Medium %v", c.Medium)
		}
		if c.Params == (ChaosParams{}) {
			c.Params = PaperChaos25G()
		}
		if c.Params.AvailabilityParams == (AvailabilityParams{}) {
			c.Params.AvailabilityParams = o.Params
		}
		o.Chaos = &c
	}
	return nil
}

// shardSize is the number of consecutive traces per shard. The shard
// partition — not the worker count — is part of the result's identity:
// metric histogram sums are folded shard by shard, so another width may
// flip last-bit float rounding while every integer aggregate stays
// identical.
const shardSize = 64

// CorpusAggregate is the running reduction of a corpus run — every field
// folds associatively in shard order.
type CorpusAggregate struct {
	// Traces, Slots, OffSlots total the corpus.
	Traces   int
	Slots    int
	OffSlots int
	// MeanOnFraction is 1 − OffSlots/Slots, computed once the fold ends.
	MeanOnFraction float64
	// MinOnFraction / MaxOnFraction bound the per-trace spread.
	MinOnFraction, MaxOnFraction float64
	// Outages, BlockedSlots, Handovers total the chaos bookkeeping (zero
	// on clean runs).
	Outages      int
	BlockedSlots int
	Handovers    int
	// Failovers, Readmits, SecondarySlots total the hybrid policy's
	// bookkeeping; MinSecondaryDwell is the shortest completed secondary
	// dwell across the corpus (zero when none completed); GoodputSlotSum
	// is Σ MeanGoodputGbps·Slots over traces, so the corpus-mean delivered
	// goodput is GoodputSlotSum/Slots. All zero outside hybrid/mmWave arms.
	Failovers         int
	Readmits          int
	SecondarySlots    int
	MinSecondaryDwell time.Duration
	GoodputSlotSum    float64
	// Metrics folds the per-trace observability snapshots — per trace
	// within a shard, then shard by shard, always in index order.
	Metrics obs.Snapshot
}

// addTrace folds one trace's result and metrics snapshot into the
// aggregate. Serial use only.
func (a *CorpusAggregate) addTrace(r ChaosTraceResult, snap obs.Snapshot) {
	if a.Traces == 0 {
		a.MinOnFraction, a.MaxOnFraction = r.OnFraction, r.OnFraction
	} else {
		if r.OnFraction < a.MinOnFraction {
			a.MinOnFraction = r.OnFraction
		}
		if r.OnFraction > a.MaxOnFraction {
			a.MaxOnFraction = r.OnFraction
		}
	}
	a.Traces++
	a.Slots += r.Slots
	a.OffSlots += r.OffSlots
	a.Outages += r.Outages
	a.BlockedSlots += r.BlockedSlots
	a.Handovers += r.Handovers
	a.Failovers += r.Failovers
	a.Readmits += r.Readmits
	a.SecondarySlots += r.SecondarySlots
	if r.MinSecondaryDwell > 0 && (a.MinSecondaryDwell == 0 || r.MinSecondaryDwell < a.MinSecondaryDwell) {
		a.MinSecondaryDwell = r.MinSecondaryDwell
	}
	a.GoodputSlotSum += r.MeanGoodputGbps * float64(r.Slots)
	a.Metrics = a.Metrics.Merge(snap)
}

// merge folds a completed shard's aggregate in. Serial use only, shards in
// index order.
func (a *CorpusAggregate) merge(o CorpusAggregate) {
	if o.Traces == 0 {
		return
	}
	if a.Traces == 0 {
		a.MinOnFraction, a.MaxOnFraction = o.MinOnFraction, o.MaxOnFraction
	} else {
		if o.MinOnFraction < a.MinOnFraction {
			a.MinOnFraction = o.MinOnFraction
		}
		if o.MaxOnFraction > a.MaxOnFraction {
			a.MaxOnFraction = o.MaxOnFraction
		}
	}
	a.Traces += o.Traces
	a.Slots += o.Slots
	a.OffSlots += o.OffSlots
	a.Outages += o.Outages
	a.BlockedSlots += o.BlockedSlots
	a.Handovers += o.Handovers
	a.Failovers += o.Failovers
	a.Readmits += o.Readmits
	a.SecondarySlots += o.SecondarySlots
	if o.MinSecondaryDwell > 0 && (a.MinSecondaryDwell == 0 || o.MinSecondaryDwell < a.MinSecondaryDwell) {
		a.MinSecondaryDwell = o.MinSecondaryDwell
	}
	a.GoodputSlotSum += o.GoodputSlotSum
	a.Metrics = a.Metrics.Merge(o.Metrics)
}

// finalize recomputes the derived mean. Idempotent.
func (a *CorpusAggregate) finalize() {
	a.MeanOnFraction = 0
	if a.Slots > 0 {
		a.MeanOnFraction = 1 - float64(a.OffSlots)/float64(a.Slots)
	}
}

// CorpusRunResult is RunCorpus's outcome: the corpus aggregate and, with
// KeepPerTrace, the per-trace results.
type CorpusRunResult struct {
	CorpusAggregate
	// PerTrace holds the per-trace results in trace order when
	// KeepPerTrace is set (clean runs leave the chaos fields zero).
	PerTrace []ChaosTraceResult
}

// DisconnectionCDF returns the cumulative distribution of per-trace
// disconnected percentage: point (x[i], y[i]) means a fraction y[i] of
// traces were disconnected for at most x[i] percent of their slots — the
// Fig 16 curve. It reads PerTrace, so the run must set KeepPerTrace.
func (c CorpusRunResult) DisconnectionCDF(points int) (xs, ys []float64) {
	if points < 2 || len(c.PerTrace) == 0 {
		return nil, nil
	}
	var maxOff float64
	offs := make([]float64, len(c.PerTrace))
	for i, r := range c.PerTrace {
		offs[i] = (1 - r.OnFraction) * 100
		if offs[i] > maxOff {
			maxOff = offs[i]
		}
	}
	for k := 0; k < points; k++ {
		x := maxOff * float64(k) / float64(points-1)
		count := 0
		for _, o := range offs {
			if o <= x {
				count++
			}
		}
		xs = append(xs, x)
		ys = append(ys, float64(count)/float64(len(offs)))
	}
	return xs, ys
}

// shardOut is one shard's contribution, reduced serially by the caller.
type shardOut struct {
	agg      CorpusAggregate
	perTrace []ChaosTraceResult
}

// RunCorpus streams a corpus through the sharded slot-model engine: clean
// or chaos (Options.Chaos), any worker count with bit-identical results,
// memory-bounded unless KeepPerTrace.
func RunCorpus(src CorpusSource, opts CorpusOptions) (CorpusRunResult, error) {
	return runCorpus(src, opts, shardSize)
}

// runCorpus is RunCorpus at an explicit shard width, so the engine tests
// can fold several shards of a small corpus.
func runCorpus(src CorpusSource, opts CorpusOptions, shard int) (CorpusRunResult, error) {
	if err := opts.Validate(); err != nil {
		return CorpusRunResult{}, err
	}
	n := src.Len()
	nShards := (n + shard - 1) / shard

	var res CorpusRunResult
	if opts.KeepPerTrace {
		res.PerTrace = make([]ChaosTraceResult, 0, n)
	}

	// Batches bound the in-flight shard results; the batch width affects
	// only concurrency, never the reduction order, so it may derive from
	// the worker count without breaking the determinism contract.
	workers := opts.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	batch := workers * 4
	if batch < 16 {
		batch = 16
	}

	for lo := 0; lo < nShards; lo += batch {
		hi := lo + batch
		if hi > nShards {
			hi = nShards
		}
		outs := parallel.Map(hi-lo, opts.Workers, func(k int) shardOut {
			tLo := (lo + k) * shard
			tHi := tLo + shard
			if tHi > n {
				tHi = n
			}
			return runShard(src, opts, tLo, tHi)
		})
		for _, so := range outs {
			res.merge(so.agg)
			if opts.KeepPerTrace {
				res.PerTrace = append(res.PerTrace, so.perTrace...)
			}
		}
	}
	res.finalize()
	opts.Registry.Merge(res.Metrics)
	return res, nil
}

// runShard simulates traces [lo, hi) serially and folds them — results and
// per-trace metric snapshots alike — in trace order.
func runShard(src CorpusSource, opts CorpusOptions, lo, hi int) shardOut {
	var out shardOut
	if opts.KeepPerTrace {
		out.perTrace = make([]ChaosTraceResult, 0, hi-lo)
	}
	// One sample buffer per shard: each trace is fully consumed by its
	// simulate call below before the next AtInto overwrites the buffer.
	reuse, _ := src.(ReusableSource)
	var buf []trace.Sample
	for i := lo; i < hi; i++ {
		var tr trace.Trace
		if reuse != nil {
			tr = reuse.AtInto(i, buf)
		} else {
			tr = src.At(i)
		}
		reg := obs.NewRegistry()
		var r ChaosTraceResult
		if c := opts.Chaos; c != nil {
			sched := fault.Plan(c.Config, c.Seed+7919*int64(i), tr.Duration())
			switch c.Medium {
			case FSO:
				r = SimulateTraceChaos(tr, c.Params, &sched, reg, nil)
			case MmWave:
				r = SimulateTraceMmWave(tr, c.Params, &sched, reg)
			case Hybrid:
				r = SimulateTraceHybrid(tr, c.Params, &sched, reg)
			}
		} else {
			// The clean path registers only the per-trace sim series.
			r.TraceResult = SimulateTrace(tr, opts.Params)
			recordTrace(reg, r.Slots, r.OffSlots, r.OnFraction)
		}
		out.agg.addTrace(r, reg.Snapshot())
		if opts.KeepPerTrace {
			out.perTrace = append(out.perTrace, r)
		}
		if reuse != nil {
			buf = tr.Samples[:0]
		}
	}
	return out
}
