// Command perfbench is the repository benchmark: four workloads over the
// closed-loop system (core) and the §5.4 corpus engine (sim), each run
// with its outputs checked. Untraced runs report the end-to-end metrics;
// traced runs report a per-layer CPU ledger folded from runtime/pprof
// profiles, the program's own counters, and spans taken around the
// benchmark's calls into the program. Nothing is timed inside the
// program. See README.md.
//
//	perfbench --workload closedloop --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cyclops/internal/obs"
)

// minSamples is the fewest profile samples (10 ms each) a layer needs
// before its self time is reported as resolved.
const minSamples = 10

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\" for every workload untraced and traced")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase, seconds")
	traced := flag.Int("trace", 0, "1 profiles the run and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	m, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	m.print(*seed)
	line, err := json.Marshal(m.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measurement is everything one run observed.
type measurement struct {
	w                 workload
	traced            bool
	attempted, failed int
	errors            []string

	setupSpans, repSpans     []float64 // seconds, every iteration
	setupPlain, setupTraced  []float64 // seconds, split by profiler state
	ratePlain, rateTraced    []float64 // simulated s per host s, per rep
	setupCounts, repCounts   obs.Snapshot
	traces                   int
	setupFold, repFold       fold
	setupProfiled, repsTimed int
	repsProfiled             int
	setupMem, repMem         memDelta
	setupDigest, repDigest   string
	workersChecked           int
	fidelity                 []string
	nproc                    int
	spinSpeedup              float64
	probe                    *probe
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	m.errors = append(m.errors, fmt.Sprintf(format, args...))
}

// measure runs one workload: its set-ups, then timed reps until budget
// is spent (at least two, so each run compares digests). A traced run
// profiles every other iteration and leaves the rest unprofiled, so the
// tracing overhead is an interleaved in-process A/B. The host probe runs
// before and after every set-up and between reps, never inside a span.
func measure(w workload, seed int64, budget time.Duration, traced bool) (*measurement, error) {
	m := &measurement{w: w, traced: traced, nproc: runtime.NumCPU(), probe: newProbe()}
	m.probe.run()

	var st state
	for i := 0; i < w.setups; i++ {
		st = nil // drop the previous corpus before building the next
		runtime.GC()
		reg := obs.NewRegistry()
		before := obs.Default().Snapshot()
		mem := startMem()
		prof, err := startProfile(traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		s, out, setupErr := w.setUp(seed, reg)
		f, err := prof.stop()
		if err != nil {
			return nil, err
		}
		m.attempted++
		if setupErr != nil {
			m.fail("set-up %d: %v", i, setupErr)
			continue
		}
		if m.setupDigest == "" {
			m.setupDigest = out.digest
		} else if out.digest != m.setupDigest {
			m.fail("set-up %d digest %s, first set-up %s", i, out.digest, m.setupDigest)
		}
		m.setupMem.add(mem.stop())
		m.setupSpans = append(m.setupSpans, out.span.Seconds())
		if prof.on {
			m.setupTraced = append(m.setupTraced, out.span.Seconds())
			m.setupFold.add(f)
			m.setupProfiled++
		} else {
			m.setupPlain = append(m.setupPlain, out.span.Seconds())
		}
		m.setupCounts = reg.Snapshot().Merge(obs.Default().Snapshot().Diff(before))
		m.traces = out.traces
		st = s
		m.probe.run()
	}
	if st == nil {
		return m, nil
	}

	// Start the timed phase from the same heap in every run: the last
	// set-up's state and nothing else.
	runtime.GC()
	start := time.Now()
	probed := start
	for k := 0; k < 2 || time.Since(start) < budget; k++ {
		if time.Since(probed) >= probeEvery {
			m.probe.run()
			probed = time.Now()
		}
		reg := obs.NewRegistry()
		mem := startMem()
		prof, err := startProfile(traced && k%2 == 1)
		if err != nil {
			return nil, err
		}
		r, repErr := st.rep(reg, 1)
		f, err := prof.stop()
		if err != nil {
			return nil, err
		}
		m.attempted++
		if repErr != nil {
			m.fail("rep %d: %v", k, repErr)
			continue
		}
		if m.repDigest == "" {
			m.repDigest = r.digest
		} else if r.digest != m.repDigest {
			m.fail("rep %d digest %s, first rep %s", k, r.digest, m.repDigest)
		}
		m.repsTimed++
		m.repMem.add(mem.stop())
		m.repSpans = append(m.repSpans, r.span.Seconds())
		rate := r.simSeconds / r.span.Seconds()
		if prof.on {
			m.rateTraced = append(m.rateTraced, rate)
			m.repFold.add(f)
			m.repsProfiled++
		} else {
			m.ratePlain = append(m.ratePlain, rate)
		}
		m.repCounts = reg.Snapshot()
		m.fidelity = r.fidelity
	}

	if traced {
		// The corpus engine promises bit-identical results at any worker
		// count; check it at the host's core count.
		if _, ok := st.(*corpus); ok && m.repDigest != "" {
			m.attempted++
			r, err := st.rep(obs.NewRegistry(), m.nproc)
			switch {
			case err != nil:
				m.fail("rep at %d workers: %v", m.nproc, err)
			case r.digest != m.repDigest:
				m.fail("digest at %d workers %s, at 1 worker %s", m.nproc, r.digest, m.repDigest)
			default:
				m.workersChecked = m.nproc
			}
		}
		m.spinSpeedup = spinSpeedup(m.nproc)
	}
	return m, nil
}

// result is the run's JSON report.
func (m *measurement) result() map[string]any {
	metrics := map[string]any{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	if !m.traced {
		slow := m.probe.slowdown()
		put("setup_s", "s", median(m.setupPlain)/slow)
		put("sim_s_per_s", "s/s", median(m.ratePlain)*slow)
		put("peak_rss_mb", "MB", peakRSSMB())
	} else {
		m.ledgerMetrics(put)
	}
	return map[string]any{
		"correct":   m.failed == 0 && m.attempted > 0,
		"attempted": m.attempted,
		"failed":    m.failed,
		"metrics":   metrics,
	}
}

// perUnit charges a set-up quantity and a rep quantity to one unit of
// work, one set-up plus one timed rep, so traced runs of any length and
// workload mix compare.
func perUnit(setup float64, setups int, rep float64, reps int) float64 {
	v := 0.0
	if setups > 0 {
		v += setup / float64(setups)
	}
	if reps > 0 {
		v += rep / float64(reps)
	}
	return v
}

// selfSeconds is each layer's CPU seconds per unit of work.
func (m *measurement) selfSeconds() map[string]float64 {
	self := map[string]float64{}
	for _, l := range layers {
		self[l] = m.layerSeconds(l)
	}
	self[unmapped] = m.layerSeconds(unmapped)
	return self
}

func (m *measurement) layerSeconds(layer string) float64 {
	return perUnit(float64(m.setupFold.ns[layer]), m.setupProfiled,
		float64(m.repFold.ns[layer]), m.repsProfiled) / 1e9
}

// span is the median duration of the named span: the set-up or rep call
// the workload wraps, or 0 for a call the workload never makes.
func (m *measurement) span(name string) float64 {
	switch name {
	case m.w.setupSpan:
		return median(m.setupSpans)
	case m.w.repSpan:
		return median(m.repSpans)
	}
	return 0
}

func (m *measurement) resolved(layer string) bool {
	return m.setupFold.samples[layer]+m.repFold.samples[layer] >= minSamples
}

func (m *measurement) ledgerMetrics(put func(name, unit string, v float64)) {
	self := m.selfSeconds()
	var total float64
	for _, v := range self {
		total += v
	}
	below := 0
	for _, l := range layers {
		put(l+".self_s", "s", self[l])
		put(l+".share", "ratio", self[l]/total)
		if !m.resolved(l) {
			below++
		}
	}
	put("ledger.samples", "count", float64(m.setupFold.total+m.repFold.total))
	put("ledger.below_resolution", "count", float64(below))
	put("ledger.unmapped_share", "ratio", self[unmapped]/total)

	// Counters the program exports, per set-up plus one rep. Set-up
	// counters include the optimizer's, which record into obs.Default().
	counter := func(name string) float64 {
		return m.setupCounts.Counters[name] + m.repCounts.Counters[name]
	}
	histSum := func(name string) float64 {
		return m.setupCounts.Histograms[name].Sum + m.repCounts.Histograms[name].Sum
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	reads := counter("cyclops_link_power_reads_total")
	put("optics.power_reads", "count", reads)
	put("optics.ns_per_read", "ns", ratio(self["optics"]*1e9, reads))
	put("optimize.nm_evals", "count", counter("cyclops_optimize_nm_evals_total"))
	put("optimize.lm_evals", "count", counter("cyclops_optimize_lm_evals_total"))
	solves := counter("cyclops_pointing_solves_total")
	iters := histSum("cyclops_pointing_iterations")
	gprime := histSum("cyclops_pointing_gprime_iterations")
	put("pointing.solves", "count", solves)
	put("pointing.fail_ratio", "ratio", ratio(counter("cyclops_pointing_failures_total"), solves))
	put("pointing.iters_per_solve", "ratio", ratio(iters, solves))
	put("pointing.gprime_iters_per_iter", "ratio", ratio(gprime, iters))
	put("pointing.beam_evals", "count", counter("cyclops_pointing_beam_evals_total"))
	put("vrh.reports", "count", counter("cyclops_run_reports_total"))
	put("core.loop.ticks", "count", counter("cyclops_run_ticks_total"))
	put("netem.packets", "count", counter("cyclops_netem_packets_total"))
	put("core.supervisor.outages", "count", counter("cyclops_outage_total"))
	put("core.handover.switches", "count", counter("cyclops_handover_total"))
	put("policy.failovers", "count", counter("cyclops_policy_failover_total"))
	slots := counter("cyclops_sim_slots_total")
	put("trace.traces", "count", float64(m.traces))
	put("trace.ns_per_trace", "ns", ratio(m.span(synthesize)*1e9, float64(m.traces)))
	put("sim.slots", "count", slots)
	put("sim.ns_per_slot", "ns", ratio(m.span(simulate)*1e9, slots))
	put("runtime.alloc_mb", "MB", perUnit(m.setupMem.allocMB, len(m.setupSpans), m.repMem.allocMB, m.repsTimed))
	put("runtime.gc_cycles", "count", perUnit(m.setupMem.gcs, len(m.setupSpans), m.repMem.gcs, m.repsTimed))

	for _, name := range []string{calibrate, run, synthesize, simulate} {
		put(name, "s", m.span(name))
	}

	put("overhead.setup_s", "s", median(m.setupTraced)-median(m.setupPlain))
	put("overhead.sim_s_per_s", "s/s", median(m.rateTraced)-median(m.ratePlain))
	put("host.nproc", "count", float64(m.nproc))
	put("host.spin_speedup", "x", m.spinSpeedup)
	put("host.probe_s", "s", median(m.probe.times))
}

// print writes the human-readable report that precedes the JSON line.
func (m *measurement) print(seed int64) {
	w := m.w
	fmt.Printf("perfbench %s seed=%d traced=%v: %s %s/%s nproc=%d GOMAXPROCS=%d\n",
		w.name, seed, m.traced, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		m.nproc, runtime.GOMAXPROCS(0))
	fmt.Printf("set-up: %d runs, median %s s; timed: %d reps, median %s simulated s per host s\n",
		len(m.setupSpans), spread(m.setupSpans, "%.3f"), m.repsTimed,
		spread(slices.Concat(m.rateTraced, m.ratePlain), "%.1f"))
	fmt.Printf("host probe: %d runs, median %s s (%.3f s on the reference host), figures scaled by %.3f\n",
		len(m.probe.times), spread(m.probe.times, "%.4f"), probeNominal, m.probe.slowdown())
	fmt.Printf("digest: set-up %s rep %s\n", m.setupDigest, m.repDigest)
	for _, e := range m.errors {
		fmt.Printf("FAILED: %s\n", e)
	}
	if !m.traced {
		return
	}
	label := "fidelity"
	if !w.paper {
		label = "unvalidated extension (no reference in the paper or the repo)"
	}
	for _, f := range m.fidelity {
		fmt.Printf("%s: %s\n", label, f)
	}
	if m.workersChecked > 0 {
		fmt.Printf("determinism: digest at %d workers equals the 1-worker digest\n", m.workersChecked)
	}
	fmt.Printf("host: attainable parallelism %.2fx of %d (spin calibration)\n", m.spinSpeedup, m.nproc)
	fmt.Printf("tracing overhead: set-up %+.3f s, sim_s_per_s %+.1f (traced minus untraced, interleaved)\n",
		median(m.setupTraced)-median(m.setupPlain), median(m.rateTraced)-median(m.ratePlain))

	self := m.selfSeconds()
	var total float64
	for _, v := range self {
		total += v
	}
	fmt.Printf("ledger: CPU s per set-up + one rep (%d + %d profiled, %d samples)\n",
		m.setupProfiled, m.repsProfiled, m.setupFold.total+m.repFold.total)
	fmt.Printf("  %-16s %9s %9s %9s %7s\n", "layer", "set-up", "rep", "self", "share")
	rows := append([]string{}, layers...)
	if self[unmapped] > 0 {
		rows = append(rows, unmapped)
	}
	for _, l := range rows {
		if !m.resolved(l) {
			fmt.Printf("  %-16s below resolution (%d samples)\n", l, m.setupFold.samples[l]+m.repFold.samples[l])
			continue
		}
		fmt.Printf("  %-16s %9.4f %9.4f %9.4f %6.1f%%\n", l,
			perUnit(float64(m.setupFold.ns[l]), m.setupProfiled, 0, 0)/1e9,
			perUnit(0, 0, float64(m.repFold.ns[l]), m.repsProfiled)/1e9,
			self[l], 100*self[l]/total)
	}
	for _, f := range append(m.setupFold.missingFiles(), m.repFold.missingFiles()...) {
		fmt.Printf("  layer table has no entry for %s (charged to %s)\n", f, unmapped)
	}
}

// ---------------------------------------------------------------- helpers

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread formats the median and range of xs.
func spread(xs []float64, verb string) string {
	if len(xs) == 0 {
		return "n/a"
	}
	f := verb + " (" + verb + "-" + verb + ")"
	return fmt.Sprintf(f, median(xs), slices.Min(xs), slices.Max(xs))
}

// profiler wraps one CPU profile kept in memory; off, it does nothing.
type profiler struct {
	on  bool
	buf bytes.Buffer
}

func startProfile(on bool) (*profiler, error) {
	p := &profiler{on: on}
	if on {
		if err := pprof.StartCPUProfile(&p.buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return p, nil
}

func (p *profiler) stop() (fold, error) {
	if !p.on {
		return fold{}, nil
	}
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes())
}

func (f *fold) add(o fold) {
	if f.ns == nil {
		f.ns, f.samples, f.missing = map[string]int64{}, map[string]int64{}, map[string]bool{}
	}
	for k, v := range o.ns {
		f.ns[k] += v
	}
	for k, v := range o.samples {
		f.samples[k] += v
	}
	for k := range o.missing {
		f.missing[k] = true
	}
	f.total += o.total
}

// memDelta is allocation and GC activity over iterations, forced
// collections (the benchmark's own, between set-ups) excluded.
type memDelta struct{ allocMB, gcs float64 }

type memStart runtime.MemStats

func startMem() *memStart {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return (*memStart)(&s)
}

func (s *memStart) stop() memDelta {
	var e runtime.MemStats
	runtime.ReadMemStats(&e)
	return memDelta{
		allocMB: float64(e.TotalAlloc-s.TotalAlloc) / (1 << 20),
		gcs:     float64((e.NumGC - e.NumForcedGC) - (s.NumGC - s.NumForcedGC)),
	}
}

func (d *memDelta) add(o memDelta) {
	d.allocMB += o.allocMB
	d.gcs += o.gcs
}

// peakRSSMB is the process's peak resident set, VmHWM. getrusage's max
// RSS would do where /proc is missing, but on Linux it also remembers the
// shell that exec'd the benchmark.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var spinSink float64

// spinSpeedup is the host's attainable parallelism: how much faster n
// goroutines spinning on independent arithmetic finish n units of work
// than one goroutine finishes them (n on an idle n-core host). The median
// of three trials.
func spinSpeedup(n int) float64 {
	const iters = 20_000_000
	spin := func() float64 {
		x := 1.0
		for i := 0; i < iters; i++ {
			x = x*1.0000001 + 1e-9
		}
		return x
	}
	var trials []float64
	for t := 0; t < 3; t++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			spinSink += spin()
		}
		serial := time.Since(start)
		start = time.Now()
		out := make(chan float64, n) // one slot per goroutine: sends never block
		for i := 0; i < n; i++ {
			go func() { out <- spin() }()
		}
		for i := 0; i < n; i++ {
			spinSink += <-out
		}
		trials = append(trials, serial.Seconds()/time.Since(start).Seconds())
	}
	return median(trials)
}
