// Command perfbench is the repository benchmark: one closed-loop caller
// drives a workload against the simulator for a fixed host-time budget,
// every op on a fresh seeded input, checks the outputs, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) as the
// last line of standard output in one JSON object.
//
//	bash perfbench/run.sh --workload mvm-cold --seed 1 --seconds 10 --trace 0
//
// The workloads, the metrics and which layer metric should move which
// end-to-end metric are recorded in perfbench/README.md and, by name, in
// BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// runners maps a workload name to its untraced run. Every runner builds its
// systems through b.setup, runs its untraced ops through b.loop into
// b.main, and checks the recorded outputs after the timed phase,
// counting failures through b.fail.
var runners = map[string]func(*bench) error{
	"mvm-cold":    runMVMCold,
	"model-isr":   runModelISR,
	"coexist-rw":  runCoexist,
	"fig9-sweep":  runFig9,
	"fleet-serve": runFleet,
}

// traces maps a workload name to its traced run, which runs the
// workload's loop again with each call into a layer timed and fills
// b.layer.
var traces = map[string]func(*bench) error{
	"mvm-cold":    (*bench).traceMVM,
	"model-isr":   (*bench).traceISR,
	"coexist-rw":  (*bench).traceCoexist,
	"fig9-sweep":  (*bench).traceFig9,
	"fleet-serve": (*bench).traceFleet,
}

// probes are the traced runs a traced run borrows, at their minimum op
// count, for the layers its own workload does not run (see probe). The
// first probe to measure a metric supplies it, so the plainest workload
// for each layer comes first. fig9-sweep's probe is a Fig. 9 sweep of
// one layer, not a whole sweep.
var probes = []struct {
	workload string
	run      func(*bench) error
}{
	{"mvm-cold", (*bench).traceMVM},
	{"model-isr", (*bench).traceISR},
	{"coexist-rw", (*bench).traceCoexist},
	{"fleet-serve", (*bench).traceFleet},
	{"fig9-sweep", (*bench).probeExperiments},
}

// A run builds its workload's state at least setupRepeats times and
// until setupMinTime has been spent, before the timed phase and again
// after it, so that cheap builds give enough samples for a steady median
// and the samples come from two moments of the host's drifting speed.
// The reported setup_s is the median of all, and the timed phase uses
// the last build before it.
const (
	setupRepeats = 5
	setupMinTime = time.Second
)

func main() {
	// One P: the process then runs one thread at a time, so its CPU time
	// is the work done, not the Go scheduler spinning for work on an
	// idle second P nor idle-time GC workers, whose share depends on how
	// contended the host's vCPUs are. The simulator's pools size
	// themselves from GOMAXPROCS and run with one worker.
	runtime.GOMAXPROCS(1)
	code, err := run(os.Args[1:], os.Stdout, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the arguments, runs one workload and prints its report. It
// returns the exit code: 0 when every output checked out, 1 when an op
// failed or a check did not hold (the report is still printed), 2 when
// the benchmark could not run at all (nothing is printed). corrupt, when
// non-nil, perturbs recorded outputs before they are checked; tests use
// it to prove a wrong output is counted.
func run(args []string, stdout io.Writer, corrupt func(op int, out []float32)) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed-phase host seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	runWorkload, ok := runners[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	spec, err := loadSpec()
	if err != nil {
		return 2, err
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		log:      stdout,
		corrupt:  corrupt,
		layer:    map[string]float64{},
		probed:   map[string]string{},
		digest:   newDigest(),
	}
	if err := runWorkload(b); err != nil {
		return 2, fmt.Errorf("%s: %w", *name, err)
	}
	if !b.trace {
		if err := b.setup(b.build); err != nil {
			return 2, fmt.Errorf("%s: %w", *name, err)
		}
	}
	if b.trace {
		if err := traces[*name](b); err != nil {
			return 2, fmt.Errorf("%s: trace: %w", *name, err)
		}
		if err := b.probe(*name); err != nil {
			return 2, err
		}
	}
	rep, err := b.report(spec)
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1, errors.New("correctness checks failed")
	}
	return 0, nil
}

// bench is one run's state: the recorded per-op host times, the failure
// count, the simulated-statistics digest and the per-layer values.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	log      io.Writer
	prefix   string // starts every log line; names the probe in a probe
	corrupt  func(op int, out []float32)

	setupS    []float64
	build     func() error // the workload's set-up, kept for the builds after the timed phase
	main      *phase // the untraced timed phase every end-to-end metric reads
	attempted int64
	failed    int64

	digest *digest
	layer  map[string]float64
	probed map[string]string // per-layer metric -> the probe that measured it
}

// logf prints one human-readable report line.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, b.prefix+format+"\n", args...)
}

// fail counts n failed ops and logs why.
func (b *bench) fail(n int64, format string, args ...any) {
	b.failed += n
	b.logf("FAIL "+format, args...)
}

// setup builds the workload's state repeatedly and records each build's
// host time; each build replaces the previous one's state.
func (b *bench) setup(build func() error) error {
	b.build = build
	var spent float64
	for n := 0; n < setupRepeats || spent < setupMinTime.Seconds(); n++ {
		runtime.GC()
		t0 := cpuNs()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s := float64(cpuNs()-t0) / 1e9
		b.setupS = append(b.setupS, s)
		spent += s
	}
	return nil
}

// phase is one timed closed loop's accounting.
type phase struct {
	units  int64     // completed ops (requests, for chunked ops)
	cycles int64     // simulated cycles the completed ops covered
	ns     int64     // summed host (process CPU) time of the op calls
	wallNs int64     // summed wall time of the op calls, logged only
	opNs   []float64 // host ns per op (per request, for chunked ops)
	mem0   runtime.MemStats
	mem1   runtime.MemStats
	// afterAlloc is what the bookkeeping between ops allocated, which
	// the Go runtime's totals over the phase exclude.
	afterAlloc uint64
	// peakRSS is the largest resident set sampled during the phase, in
	// MiB.
	peakRSS float64
}

// budget is the run's timed-phase length.
func (b *bench) budget() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// opsPerS is the phase's completed ops per host second.
func (p *phase) opsPerS() float64 { return float64(p.units) / (float64(p.ns) / 1e9) }

// loop is a closed-loop timed phase: one caller, the next op starts when
// the previous one returns. It runs whole rounds of ops until budget has
// passed and at least minOps ops are done. One per-op sample is a
// round's host time per unit, so that a round mixing inputs of
// different cost (mvm-cold's three layers) gives samples of one mode,
// whose median does not flip between the kinds. op returns how
// many units (ops, or requests for a chunked op) it attempted and the
// simulated cycles they covered; an error counts the units as failed.
// The phase's host time is the sum of the op calls, so the benchmark's
// own bookkeeping between ops (done in after, when non-nil: checks,
// digests, the next op's inputs) is excluded, and so are its
// allocations.
func (b *bench) loop(budget time.Duration, minOps, round int, op func(i int) (units int64, cycles int64, err error), after func(i int)) *phase {
	p := &phase{}
	// Return set-up garbage to the OS so the RSS samples below see the
	// timed phase's own working set.
	debug.FreeOSMemory()
	runtime.ReadMemStats(&p.mem0)
	stop := make(chan struct{})
	peak := sampleRSS(stop)
	start := time.Now()
	var roundNs, roundUnits int64
	for i := 0; ; i++ {
		if i >= minOps && i%round == 0 && time.Since(start) >= budget {
			break
		}
		t0, w0 := cpuNs(), time.Now()
		units, cycles, err := op(i)
		ns := cpuNs() - t0
		p.ns += ns
		p.wallNs += time.Since(w0).Nanoseconds()
		if after != nil {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			after(i)
			runtime.ReadMemStats(&m1)
			p.afterAlloc += m1.TotalAlloc - m0.TotalAlloc
		}
		b.attempted += units
		if err != nil {
			b.fail(units, "op %d: %v", i, err)
		} else {
			p.units += units
			p.cycles += cycles
			roundNs, roundUnits = roundNs+ns, roundUnits+units
		}
		if (i+1)%round == 0 && roundUnits > 0 {
			p.opNs = append(p.opNs, float64(roundNs)/float64(roundUnits))
			roundNs, roundUnits = 0, 0
		}
	}
	close(stop)
	p.peakRSS = <-peak
	runtime.ReadMemStats(&p.mem1)
	return p
}

// rssEvery is how often sampleRSS reads the resident set.
const rssEvery = 10 * time.Millisecond

// sampleRSS reads the process's resident set every rssEvery until stop
// is closed, then sends the largest reading and exits. Sampling inside
// the ops catches the peaks they reach before the garbage collector
// returns memory.
func sampleRSS(stop <-chan struct{}) <-chan float64 {
	peak := make(chan float64)
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		m := rssMB()
		for {
			select {
			case <-stop:
				peak <- max(m, rssMB())
				return
			case <-t.C:
				m = max(m, rssMB())
			}
		}
	}()
	return peak
}

// corruptOutput applies the test hook, if any, to op i's output before
// it is checked.
func (b *bench) corruptOutput(i int, out []float32) {
	if b.corrupt != nil && out != nil {
		b.corrupt(i, out)
	}
}

// overhead records the traced loop's ops_per_s against the untraced
// one's, as the percentage the tracing cost. A probe has no untraced
// loop and records nothing.
func (b *bench) overhead(traced *phase) {
	if b.main == nil {
		return
	}
	u, t := b.main.opsPerS(), traced.opsPerS()
	b.layer["trace.overhead_pct"] = (u - t) / u * 100
	b.logf("trace.overhead_pct: untraced %.4g ops/s, traced %.4g ops/s", u, t)
}

// probe fills the per-layer metrics the workload's own traced run left
// unset. It runs every other workload's probe on the run's seed with a
// zero time budget, so each does its minimum op count, and takes from it
// only the metrics still unset. A probe's failed checks count as this
// run's.
func (b *bench) probe(own string) error {
	for _, p := range probes {
		if p.workload == own {
			continue
		}
		name := p.workload
		pb := &bench{
			workload: name, seed: b.seed, trace: true, log: b.log, prefix: "probe " + name + ": ",
			layer: map[string]float64{}, digest: newDigest(),
		}
		if err := p.run(pb); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		b.attempted += pb.attempted
		b.failed += pb.failed
		for k, v := range pb.layer {
			if _, ok := b.layer[k]; !ok {
				b.layer[k] = v
				b.probed[k] = name
			}
		}
	}
	return nil
}

// goLayer records the Go runtime's share of the untraced timed phase.
func (b *bench) goLayer() {
	p := b.main
	b.layer["go.alloc_bytes_per_op"] = float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc-p.afterAlloc) / float64(max(p.units, 1))
	b.layer["go.gc_pause_ms"] = float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report assembles the run's metrics and checks that they are exactly
// the set BENCHMARK.json declares for this mode.
func (b *bench) report(spec *benchSpec) (*result, error) {
	if b.attempted == 0 || b.main == nil {
		return nil, errors.New("no op was attempted")
	}
	b.logf("digest %s %s", b.workload, b.digest.sum())
	b.logf("fail_ratio %.6g (%d failed / %d attempted)", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	values := map[string]float64{}
	p := b.main
	if b.trace {
		b.goLayer()
		if len(b.probed) > 0 {
			b.logf("measured by probes, not by %s: %v", b.workload, b.probed)
		}
		values = b.layer
	} else {
		tail, pct, beyond := tailPercentile(p.opNs)
		b.logf("op_tail_ms is p%g: %d of %d per-op samples lie beyond it", pct, beyond, len(p.opNs))
		b.logf("op_p50_ms %.6g (printed only: it jumps between the host's two speed modes from run to run)", median(p.opNs)/1e6)
		q := append([]float64(nil), p.opNs...)
		sort.Float64s(q)
		b.logf("per-op samples, ms: min %.4g p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g max %.4g; %d GCs in the phase",
			q[0]/1e6, q[len(q)/10]/1e6, q[len(q)/4]/1e6, q[len(q)/2]/1e6, q[len(q)*3/4]/1e6, q[len(q)*9/10]/1e6, q[len(q)-1]/1e6, p.mem1.NumGC-p.mem0.NumGC)
		b.logf("host time is process CPU time; by wall time the op calls ran at %.4g ops/s, %.3g CPU s per wall s",
			float64(p.units)/(float64(p.wallNs)/1e9), float64(p.ns)/float64(p.wallNs))
		b.logf("setup_s is the median of %d builds, %.4g-%.4g s", len(b.setupS), slices.Min(b.setupS), slices.Max(b.setupS))
		values["setup_s"] = median(b.setupS)
		values["ops_per_s"] = p.opsPerS()
		values["op_tail_ms"] = tail / 1e6
		values["sim_cycles_per_s"] = float64(p.cycles) / (float64(p.ns) / 1e9)
		values["peak_rss_mb"] = p.peakRSS
	}
	declared := spec.EndToEnd
	if b.trace {
		declared = spec.PerLayer
	}
	rep := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", d.Name)
		}
		rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	if len(values) > 0 {
		var extra []string
		for n := range values {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not declared in BENCHMARK.json", extra)
	}
	return rep, nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec() (*benchSpec, error) {
	data, err := readRepoFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// readRepoFile reads a file by its path from the repository root, the
// directory the benchmark runs from (or its parent, from perfbench/).
func readRepoFile(name string) ([]byte, error) {
	data, err := os.ReadFile(name)
	if errors.Is(err, os.ErrNotExist) {
		data, err = os.ReadFile("../" + name)
	}
	return data, err
}
