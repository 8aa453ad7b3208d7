package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"cyclops"
	"cyclops/internal/core"
	"cyclops/internal/fault"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
	"cyclops/internal/trace"
)

// workload is one benchmark input set. Its set-up runs several times per
// run (setup_s is their median); the state the last set-up built is then
// driven through timed repetitions until the run's budget is spent.
type workload struct {
	name   string
	setups int
	// paper says whether the repo holds a paper reference for the
	// workload's outputs; extensions print their numbers unvalidated.
	paper bool
	// setupSpan and repSpan name the spans around the set-up's and the
	// rep's calls into the program.
	setupSpan, repSpan string
	setUp              func(seed int64, reg *obs.Registry) (state, setupOut, error)
}

// setupOut is what one set-up reports besides the state it built.
type setupOut struct {
	span   time.Duration // around the set-up's calls into the program
	digest string
	traces int // viewing traces synthesized
}

// state is a built workload, ready for timed repetitions. Every rep of
// one state does identical work, so its digest must repeat exactly.
type state interface {
	// rep runs one repetition. workers is the corpus engine's fan-out
	// (timed reps use 1); closed-loop runs are single-goroutine anyway.
	rep(reg *obs.Registry, workers int) (repOut, error)
}

// repOut is one repetition's outcome.
type repOut struct {
	span       time.Duration // around the calls into the program
	simSeconds float64       // simulated headset-seconds
	digest     string
	fidelity   []string
}

// The spans: Calibrate (with NewSystem), Run, Materialize, RunCorpus.
const (
	calibrate  = "span.calibrate_s"
	run        = "span.run_s"
	synthesize = "span.synthesize_s"
	simulate   = "span.simulate_s"
)

var workloads = []workload{
	{name: "closedloop", setups: 3, paper: true, setupSpan: calibrate, repSpan: run, setUp: closedLoopSetUp(false)},
	{name: "closedloop-recovery", setups: 3, setupSpan: calibrate, repSpan: run, setUp: closedLoopSetUp(true)},
	{name: "corpus-clean", setups: 5, paper: true, setupSpan: synthesize, repSpan: simulate, setUp: corpusSetUp(false)},
	{name: "corpus-chaos", setups: 5, setupSpan: synthesize, repSpan: simulate, setUp: corpusSetUp(true)},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest accumulates a canonical text of simulated statistics; %v prints
// a float64 in its shortest exact form, so equal digests mean
// bit-identical values.
type digest struct{ b strings.Builder }

func (d *digest) add(key string, v any) { fmt.Fprintf(&d.b, "%s=%v\n", key, v) }

func (d *digest) sum() string {
	h := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(h[:8])
}

func checkFraction(what string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("%s %v outside [0, 1]", what, v)
	}
	return nil
}

// ------------------------------------------------------------ closed loop

// closedLoop is a calibrated rig: the models one set-up learned.
type closedLoop struct {
	cfg      cyclops.LinkConfig
	seed     int64
	models   *core.System
	recovery bool
}

// closedLoopSetUp builds the closedloop workload (Fig 14: 10G link,
// HandHeld(0.6, 0.7) for 60 s, every opt-in arm nil) or, with recovery,
// closedloop-recovery (25G link playing corpus trace 0 under the default
// fault mix with two standby TXs and the hybrid mmWave policy, the run
// `cyclops-sim -link 25g -motion trace -chaos -hybrid -tx 3` makes).
// Set-up is NewSystem + Calibrate.
func closedLoopSetUp(recovery bool) func(int64, *obs.Registry) (state, setupOut, error) {
	cfg := cyclops.Link10G
	if recovery {
		cfg = cyclops.Link25G
	}
	return func(seed int64, reg *obs.Registry) (state, setupOut, error) {
		start := time.Now()
		sys := core.NewSystem(cfg, seed)
		sys.Obs = reg
		cal, err := sys.Calibrate()
		out := setupOut{span: time.Since(start)}
		if err != nil {
			return nil, out, fmt.Errorf("calibrate: %w", err)
		}
		var d digest
		d.add("calibration", fmt.Sprintf("%+v", cal))
		out.digest = d.sum()
		return &closedLoop{cfg: cfg, seed: seed, models: sys, recovery: recovery}, out, nil
	}
}

// rig returns a fresh system of the calibrated seed carrying the learned
// models. Run advances the tracker's noise stream and the mirror state,
// so a second Run on one System is a different experiment; a fresh rig
// per rep makes every rep the same one.
func (c *closedLoop) rig(reg *obs.Registry) *core.System {
	sys := core.NewSystem(c.cfg, c.seed)
	sys.UseOracleModels()
	sys.KTX, sys.KRX, sys.Map = c.models.KTX, c.models.KRX, c.models.Map
	sys.Obs = reg
	return sys
}

func (c *closedLoop) options() core.RunOptions {
	if !c.recovery {
		return core.RunOptions{
			Program:     cyclops.HandHeld(0.6, 0.7, 60*time.Second, c.seed),
			SampleEvery: 5 * time.Millisecond,
		}
	}
	prog := cyclops.Playback(cyclops.GenerateTrace(c.seed, 0, time.Minute))
	dur := prog.Duration()
	sched := fault.Plan(fault.DefaultConfig(), c.seed, dur)
	standbys := cyclops.StandbyRing(c.cfg, c.seed, 2, 1.4)
	scheds := make([]*fault.Schedule, len(standbys))
	for i := range standbys {
		s := fault.Plan(fault.DefaultConfig(), c.seed+int64(i+1)*101, dur)
		scheds[i] = &s
	}
	return core.RunOptions{
		Program:     prog,
		SampleEvery: 10 * time.Millisecond,
		Faults:      &sched,
		Handover:    &core.HandoverOptions{Standbys: standbys, StandbyFaults: scheds},
		Hybrid:      &core.HybridOptions{},
	}
}

func (c *closedLoop) rep(reg *obs.Registry, _ int) (repOut, error) {
	sys := c.rig(reg)
	opts := c.options()
	start := time.Now()
	res, err := sys.Run(opts)
	out := repOut{span: time.Since(start)}
	if err != nil {
		return out, fmt.Errorf("run: %w", err)
	}
	out.simSeconds = res.Metrics.Counters["cyclops_run_ticks_total"] * time.Millisecond.Seconds()
	if err := checkFraction("UpFraction", res.UpFraction); err != nil {
		return out, err
	}
	if res.Points <= 0 {
		return out, fmt.Errorf("run made %d pointing solves", res.Points)
	}

	var d digest
	d.add("samples", len(res.Samples))
	d.add("windows", len(res.Windows))
	d.add("disconnections", res.Disconnections)
	d.add("up", res.UpFraction)
	d.add("points", res.Points)
	d.add("point_failures", res.PointFailures)
	d.add("point_iters", res.TotalPointIters)
	d.add("gprime_iters", res.TotalGPrimeIters)
	d.add("solves_skipped", res.SolvesSkipped)
	d.add("tp_latency", int64(res.MeanTPLatency))
	d.add("outages", res.Outages)
	d.add("reacquired", res.Reacquired)
	d.add("degraded_ticks", res.DegradedTicks)
	d.add("handovers", res.Handovers)
	var goodput float64
	for _, w := range res.Windows {
		goodput += w.Gbps
	}
	d.add("goodput_sum", goodput)
	if h := res.Hybrid; h != nil {
		if err := checkFraction("DeliveredUpFraction", h.DeliveredUpFraction); err != nil {
			return out, err
		}
		d.add("hybrid", fmt.Sprintf("%d %d %d %d %v %d", h.Failovers, h.Readmits,
			h.SecondaryTicks, h.DeliveredUpTicks, h.DeliveredUpFraction, h.MinSecondaryDwell))
	} else if c.recovery {
		return out, fmt.Errorf("hybrid run returned no policy stats")
	}
	d.add("metrics", res.Metrics.Exposition())
	out.digest = d.sum()

	meanGbps := 0.0
	if len(res.Windows) > 0 {
		meanGbps = goodput / float64(len(res.Windows))
	}
	if c.recovery {
		out.fidelity = []string{fmt.Sprintf(
			"link up %.2f%%, delivered up %.2f%%, %d outages, %d handovers, %d failovers, mean goodput %.2f Gbps",
			res.UpFraction*100, res.Hybrid.DeliveredUpFraction*100, res.Outages, res.Handovers,
			res.Hybrid.Failovers, meanGbps)}
		return out, nil
	}
	linMax := core.MaxSpeed(res.Samples, cyclops.LinSpeedOf)
	angMax := core.MaxSpeed(res.Samples, cyclops.AngSpeedOf)
	lin, ang := core.MixedSpeedThreshold(res.Samples, linMax, angMax, 40)
	linCm, angDeg := lin*100, ang*180/math.Pi
	out.fidelity = []string{
		fmt.Sprintf("Fig 14 pair: optimal <= %.1f cm/s and <= %.1f deg/s (paper <= 30 cm/s and <= 16-18 deg/s; error %+.1f cm/s, %+.1f deg/s)",
			linCm, angDeg, linCm-30, angDeg-clamp(angDeg, 16, 18)),
		fmt.Sprintf("link up %.2f%% of the run, mean goodput %.2f Gbps", res.UpFraction*100, meanGbps),
	}
	return out, nil
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// ----------------------------------------------------------------- corpus

// corpus is a materialized 500-trace Fig 16 corpus.
type corpus struct {
	seed   int64
	traces []trace.Trace
	chaos  bool
}

// corpusSetUp builds corpus-clean (Fig 16: RunCorpus with Paper25G on the
// event-driven kernel) or, with chaos, corpus-chaos (the four
// fig16-faults cells on the per-slot chaos kernel). Set-up synthesizes
// the corpus (sim.Materialize), which the paper loads from disk.
func corpusSetUp(chaos bool) func(int64, *obs.Registry) (state, setupOut, error) {
	return func(seed int64, _ *obs.Registry) (state, setupOut, error) {
		start := time.Now()
		traces := sim.Materialize(cyclops.TraceSource(seed), 1)
		out := setupOut{span: time.Since(start), traces: len(traces)}
		if len(traces) != trace.DatasetTraces {
			return nil, out, fmt.Errorf("materialized %d traces, want %d", len(traces), trace.DatasetTraces)
		}
		var d digest
		for _, tr := range traces {
			var sum float64
			for _, s := range tr.Samples {
				p := s.Pose
				sum += p.Trans.X + p.Trans.Y + p.Trans.Z + p.Rot.W + p.Rot.X + p.Rot.Y + p.Rot.Z
			}
			d.add(tr.ID, fmt.Sprintf("%d %v", len(tr.Samples), sum))
		}
		out.digest = d.sum()
		return &corpus{seed: seed, traces: traces, chaos: chaos}, out, nil
	}
}

// chaosCells are the fig16-faults sweep: occlusion rate × duration over a
// fixed background of tracker blackouts and stuck galvos.
func chaosCells() []fault.Config {
	var cells []fault.Config
	for _, rate := range []float64{0.5, 2} {
		for _, dur := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond} {
			cells = append(cells, fault.Config{
				Occlusion:        fault.ClassConfig{PerMin: rate, MinDur: dur, MaxDur: dur},
				OcclusionDepthDB: [2]float64{25, 45},
				OcclusionRamp:    10 * time.Millisecond,
				Blackout:         fault.ClassConfig{PerMin: 1, MinDur: 50 * time.Millisecond, MaxDur: 150 * time.Millisecond},
				Stuck:            fault.ClassConfig{PerMin: 0.5, MinDur: 100 * time.Millisecond, MaxDur: 300 * time.Millisecond},
			})
		}
	}
	return cells
}

func addAggregate(d *digest, key string, a sim.CorpusAggregate) {
	d.add(key, fmt.Sprintf("%d %d %d %v %v %v %d %d %d %d %d %d %d %v",
		a.Traces, a.Slots, a.OffSlots, a.MeanOnFraction, a.MinOnFraction, a.MaxOnFraction,
		a.Outages, a.BlockedSlots, a.Handovers, a.Failovers, a.Readmits, a.SecondarySlots,
		a.MinSecondaryDwell, a.GoodputSlotSum))
	d.add(key+".metrics", a.Metrics.Exposition())
}

func checkAggregate(a sim.CorpusAggregate) error {
	if a.Traces != trace.DatasetTraces {
		return fmt.Errorf("corpus run folded %d traces, want %d", a.Traces, trace.DatasetTraces)
	}
	for _, f := range []struct {
		what string
		v    float64
	}{{"mean availability", a.MeanOnFraction}, {"min availability", a.MinOnFraction}, {"max availability", a.MaxOnFraction}} {
		if err := checkFraction(f.what, f.v); err != nil {
			return err
		}
	}
	return nil
}

// simSeconds is the headset time a corpus run simulated: its 1 ms slots.
func simSeconds(a sim.CorpusAggregate) float64 {
	return float64(a.Slots) * sim.Paper25G().Slot.Seconds()
}

func (c *corpus) rep(reg *obs.Registry, workers int) (repOut, error) {
	if c.chaos {
		return c.repChaos(reg, workers)
	}
	start := time.Now()
	run, err := sim.RunCorpus(sim.TraceSlice(c.traces), sim.CorpusOptions{
		Params:       sim.Paper25G(),
		Workers:      workers,
		KeepPerTrace: true,
		Registry:     reg,
	})
	out := repOut{span: time.Since(start)}
	if err != nil {
		return out, fmt.Errorf("RunCorpus: %w", err)
	}
	if err := checkAggregate(run.CorpusAggregate); err != nil {
		return out, err
	}
	if m := run.MeanOnFraction; m < 0.95 || m > 0.9998 {
		return out, fmt.Errorf("mean availability %.4f%% outside the paper's Fig 16 range 95-99.98%%", m*100)
	}
	var d digest
	out.simSeconds = simSeconds(run.CorpusAggregate)
	addAggregate(&d, "clean", run.CorpusAggregate)
	out.digest = d.sum()

	var off, scattered float64
	for _, r := range run.PerTrace {
		off += float64(r.OffSlots)
		scattered += r.ScatteredOffFraction(10) * float64(r.OffSlots)
	}
	if off > 0 {
		scattered /= off
	}
	gbps := run.MeanOnFraction * cyclops.Link25G.Transceiver.OptimalGoodputGbps
	out.fidelity = []string{
		fmt.Sprintf("operational slots: mean %.2f%% (paper 98.6%%, error %+.2f pp), range %.2f%%-%.2f%% (paper 95-99.98%%)",
			run.MeanOnFraction*100, run.MeanOnFraction*100-98.6, run.MinOnFraction*100, run.MaxOnFraction*100),
		fmt.Sprintf("effective bandwidth %.2f Gbps (paper ~23, error %+.2f Gbps)", gbps, gbps-23),
		fmt.Sprintf("off-slots in light frames (<10 off): %.1f%% (paper >60%%, error %+.1f pp)",
			scattered*100, scattered*100-60),
	}
	return out, nil
}

func (c *corpus) repChaos(reg *obs.Registry, workers int) (repOut, error) {
	var out repOut
	var d digest
	params := sim.PaperChaos25G()
	for i, cfg := range chaosCells() {
		start := time.Now()
		run, err := sim.RunCorpus(sim.TraceSlice(c.traces), sim.CorpusOptions{
			Chaos:    &sim.CorpusChaos{Config: cfg, Seed: c.seed + 1, Params: params},
			Workers:  workers,
			Registry: reg,
		})
		out.span += time.Since(start)
		if err != nil {
			return out, fmt.Errorf("RunCorpus cell %d: %w", i, err)
		}
		if err := checkAggregate(run.CorpusAggregate); err != nil {
			return out, fmt.Errorf("cell %d: %w", i, err)
		}
		out.simSeconds += simSeconds(run.CorpusAggregate)
		addAggregate(&d, fmt.Sprintf("cell%d", i), run.CorpusAggregate)
		out.fidelity = append(out.fidelity, fmt.Sprintf(
			"occlusion %.1f/min x %v: mean on %.2f%%, worst %.2f%%, %d outages",
			cfg.Occlusion.PerMin, cfg.Occlusion.MinDur, run.MeanOnFraction*100,
			run.MinOnFraction*100, run.Outages))
	}
	out.digest = d.sum()
	return out, nil
}
