package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"newton"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/experiments"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/nn"
	"newton/internal/obs"
	"newton/internal/par"
	"newton/internal/workloads"
)

// PerfSchema tags the -perf report format; scripts/bench.sh and the CI
// benchmark-smoke job validate reports against it with -checkperf. v2
// added the observability-overhead side (obs-on serial measurement and
// its relative cost) and gated the obs-off allocation budgets. v5 adds
// the event-core sides: the stepping oracle and the memo-defeating
// cold-event measurements per MVM entry, the event-vs-oracle speedup
// and byte-identity verdict, the report's effective worker count (so
// the speedup gate holds on one-CPU boxes, where the parallel side
// degenerates to the serial measurement), and hard sim-cycles per
// wall-second floors at 10x the PR7 stepping-core baseline. v3 added
// the fleet section: a 4-device cluster replay's virtual-time capacity,
// wall cost per routed request, and router overhead over a single
// device, with its own byte-identity verdict. v4 adds the e2e section:
// whole-model on-device serving (one ISR program per inference) against
// the per-layer host loop, with per-model speedups, the numeric
// envelope, a device-rerun byte-identity verdict, and the wall cost of
// one on-device inference. v6 adds the coexistence section: the QoS
// interference sweep's per-policy host bandwidth and PIM p99 at the top
// offered load, with an event-vs-oracle byte-identity verdict, gated so
// the policy ordering (pim-priority starves the host and keeps the
// flattest tail, mem-priority buys the most bandwidth, fair-slice sits
// between) cannot silently invert.
const PerfSchema = "newton-bench-perf/v6"

// simThroughputFloors are the v5 regression floors on each MVM entry's
// serial sim-cycles/wall-second: 10x the BENCH_PR7.json stepping-core
// numbers (GNMT 118,509.9; BERT 117,620.6; DLRM 229,573.1), which the
// event-driven core must clear. -checkperf fails a report below them.
var simThroughputFloors = map[string]float64{
	"GNMT-s1": 1_185_099,
	"BERT-s2": 1_176_206,
	"DLRM-s1": 2_295_731,
}

// obsOffAllocBudgets pins the serial obs-off allocation cost of each MVM
// workload (allocs per RunMVM with no registry attached), at the levels
// the hot-path allocation purge reached. The nil-registry contract says
// observability off must not move these; -checkperf fails if a report
// shows more.
var obsOffAllocBudgets = map[string]int64{
	"GNMT-s1": 11,
	"BERT-s2": 23,
	"DLRM-s1": 9,
}

// PerfSide is one execution mode's measurement of a benchmark.
type PerfSide struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// SimCyclesPerSec is the simulator's throughput: simulated DRAM
	// cycles retired per wall-clock second (0 for sweep benchmarks,
	// whose cycle count spans many heterogeneous runs).
	SimCyclesPerSec float64 `json:"sim_cycles_per_wall_second"`
}

// PerfEntry is one benchmark's serial-vs-parallel comparison.
type PerfEntry struct {
	Name string `json:"name"`
	// SimCycles is the mean simulated duration of one op over the
	// serial side's reported repetition (0 for sweeps).
	SimCycles int64    `json:"sim_cycles_per_op"`
	Serial    PerfSide `json:"serial"`
	Parallel  PerfSide `json:"parallel"`
	// Speedup is serial ns/op over parallel ns/op.
	Speedup float64 `json:"speedup"`
	// Identical records the determinism check: the parallel run's
	// outputs, cycle counts and DRAM stats matched the serial reference
	// bit for bit.
	Identical bool `json:"byte_identical"`
	// Observed re-measures the serial side with a metrics registry and
	// span tracer attached (zero for sweep benchmarks, which are not
	// metered). ObsOverheadPct is its ns/op cost relative to the
	// unobserved serial side, in percent.
	Observed       PerfSide `json:"observed"`
	ObsOverheadPct float64  `json:"obs_overhead_pct"`
	// Oracle re-measures the serial side on the stepping reference
	// engine (host.Options.Oracle), and EventCold on the event core with
	// alternating inputs so every run misses the result memo — the
	// steady-state cold-compute cost. EventSpeedupVsOracle is the
	// oracle's ns/op over the (warm) serial side's: the event core's
	// whole-point number. Sweep entries measure Oracle at the sweep
	// level and leave EventCold zero.
	Oracle               PerfSide `json:"oracle"`
	EventCold            PerfSide `json:"event_cold"`
	EventSpeedupVsOracle float64  `json:"event_speedup_vs_oracle"`
	// OracleIdentical records the differential verdict: the event-core
	// run's outputs, cycle counts and DRAM stats matched the stepping
	// oracle bit for bit.
	OracleIdentical bool `json:"oracle_identical"`
}

// FleetPerf is the v3 fleet section: the cluster router replaying a
// saturating Poisson stream across a fleet of calibrated Newton
// devices.
type FleetPerf struct {
	// Devices is the fleet width; Requests the replayed stream length.
	Devices  int `json:"devices"`
	Requests int `json:"requests"`
	// OfferedQPS is the stream's offered load and FleetQPS the fleet's
	// served throughput, both in queries per second of virtual time.
	OfferedQPS float64 `json:"offered_qps"`
	FleetQPS   float64 `json:"fleet_qps"`
	// NsPerRequest is the wall-clock cost of routing and completing one
	// request through the fleet replay; SingleNsPerRequest is the same
	// stream through a one-device fleet, where routing degenerates.
	// RouterOverheadPct is the fleet's per-request premium over it — the
	// price of the ring, least-loaded scans and failover machinery.
	NsPerRequest       int64   `json:"ns_per_request"`
	SingleNsPerRequest int64   `json:"single_device_ns_per_request"`
	RouterOverheadPct  float64 `json:"router_overhead_pct"`
	// Identical records that two independently built and calibrated
	// fleets produced byte-identical Prometheus expositions for the
	// same stream.
	Identical bool `json:"byte_identical"`
}

// E2EModelPerf is one model's whole-model serving comparison inside the
// v4 e2e section, lifted from the experiment's E2ERow.
type E2EModelPerf struct {
	Name string `json:"name"`
	// DeviceCycles is the single-ISR-program inference time;
	// HostLoopCycles the per-layer host loop under the conservative
	// round-trip estimate. Ratio is their quotient: the on-device
	// serving speedup.
	DeviceCycles   int64   `json:"device_cycles"`
	HostLoopCycles int64   `json:"host_loop_cycles"`
	Ratio          float64 `json:"speedup"`
	// Instrs is the compiled program length; MaxAbsDiff the largest
	// divergence between the device output and the per-layer output
	// (zero on the exact multi-chunk path, bounded by the bfloat16 LUT
	// envelope on single-chunk activation layers).
	Instrs     int     `json:"program_instrs"`
	MaxAbsDiff float64 `json:"max_abs_diff"`
}

// E2EPerf is the v4 e2e section: the whole-model serving study plus a
// wall-clock price and a determinism verdict for the ISR device path.
type E2EPerf struct {
	Models         []E2EModelPerf `json:"models"`
	GeomeanSpeedup float64        `json:"geomean_speedup"`
	// NsPerInference is the wall-clock cost of one whole-model on-device
	// inference (compile + frontend replay) of the smallest stack, DLRM.
	NsPerInference int64 `json:"ns_per_inference"`
	// Identical records that two independently placed and compiled
	// device runs of the same model produced bit-identical outputs,
	// cycle counts and refresh counts.
	Identical bool `json:"byte_identical"`
}

// CoexistPolicyPerf is one QoS policy's cell of the coexistence
// section, measured at the sweep's top offered load.
type CoexistPolicyPerf struct {
	Policy string `json:"policy"`
	// HostGBs is the conventional bandwidth serviced while MVMs were in
	// flight (GB/s); PIMP99 the MVM duration's 99th percentile in cycles.
	HostGBs float64 `json:"host_gb_per_s"`
	PIMP99  int64   `json:"pim_p99_cycles"`
}

// CoexistPerf is the v6 coexistence section: the interference sweep's
// policy cells at its top offered load, plus a determinism verdict.
type CoexistPerf struct {
	// Intensity is the offered load the cells were measured at, in
	// requests per microsecond per channel.
	Intensity float64             `json:"intensity_req_per_us"`
	Policies  []CoexistPolicyPerf `json:"policies"`
	// Identical records that rerunning the same sweep on the stepping
	// oracle (serial) reproduced every point of the event-core (parallel)
	// sweep exactly — mixed PIM/conventional schedules included.
	Identical bool `json:"byte_identical"`
}

// PerfReport is the BENCH_PR7.json payload: the simulator's wall-clock
// performance trajectory, measured from one code path.
type PerfReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Channels   int    `json:"channels"`
	Banks      int    `json:"banks"`
	Generated  string `json:"generated_at"`
	// EffectiveWorkers is the parallel pool the MVM entries actually ran
	// on (par.Effective of GOMAXPROCS over the channel count). When it
	// is 1 — a one-CPU box — the parallel side reuses the serial
	// measurement and Speedup is exactly 1.0, so the >= 1.0 speedup gate
	// holds everywhere instead of exempting small boxes.
	EffectiveWorkers int `json:"effective_workers"`
	// VerifyCommands / VerifyViolations are the conformance checker's
	// verdict over the parallel runs measured here.
	VerifyCommands   int64       `json:"verify_commands_checked"`
	VerifyViolations int         `json:"verify_violations"`
	Benchmarks       []PerfEntry `json:"benchmarks"`
	// Fleet is the cluster-router measurement (required since v3).
	Fleet *FleetPerf `json:"fleet"`
	// E2E is the whole-model serving measurement (required since v4).
	E2E *E2EPerf `json:"e2e"`
	// Coexist is the QoS interference measurement (required since v6).
	Coexist *CoexistPerf `json:"coexist"`
}

// perfWorkloads are the MVM benchmarks: the largest Table II layer
// (AlexNet-L6 is too slow to iterate under -perf), a mid-size BERT
// layer, and the small ragged DLRM layer.
func perfWorkloads() []workloads.Bench {
	var out []workloads.Bench
	for _, name := range []string{"GNMT-s1", "BERT-s2", "DLRM-s1"} {
		if b, ok := workloads.ByName(name); ok {
			out = append(out, b)
		}
	}
	return out
}

// mvmSetup builds a controller with a placed matrix and input for a
// workload, in the given parallel mode.
func mvmSetup(channels, banks int, seed int64, b workloads.Bench, parallel int, verify, oracle bool) (*host.Controller, *layout.Placement, bf16.Vector, error) {
	geo := dram.HBM2EGeometry(channels)
	geo.Banks = banks
	if banks < geo.BanksPerCluster {
		geo.BanksPerCluster = banks
	}
	opts := host.Newton()
	opts.Parallel = parallel
	opts.Verify = verify
	opts.Oracle = oracle
	ctrl, err := host.NewController(dram.Config{Geometry: geo, Timing: dram.AiMTiming()}, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	m := layout.RandomMatrix(b.Rows, b.Cols, seed)
	p, err := ctrl.Place(m)
	if err != nil {
		return nil, nil, nil, err
	}
	v := bf16.Vector(layout.RandomMatrix(b.Cols, 1, seed+1).Data)
	return ctrl, p, v, nil
}

// mvmIdentical compares a serial and a parallel run of the same product
// at the bit level.
func mvmIdentical(s, p *host.Result) bool {
	if len(s.Output) != len(p.Output) || s.Cycles != p.Cycles ||
		s.StartCycle != p.StartCycle || s.EndCycle != p.EndCycle || s.Stats != p.Stats {
		return false
	}
	for i := range s.Output {
		if math.Float32bits(s.Output[i]) != math.Float32bits(p.Output[i]) {
			return false
		}
	}
	return true
}

// measureMVM benchmarks repeated RunMVM on one controller and returns
// the side plus the mean simulated cycles per op. Throughput is the
// reported repetition's total simulated cycles over its total host
// time, not one op's cycles over ns/op: per-run cycles vary with the
// refresh phase, so pricing one op would move the figure with b.N.
// With observed set, the controller publishes to a live registry and
// tracer throughout, so the side prices the full metering path (counter
// updates, histogram observes, span appends) rather than the
// nil-registry fast path. With oracle set, the stepping reference
// engine runs instead of the event core; with vary set, two inputs
// alternate so every event-core run misses the result memo (the
// steady-state cold-compute price).
func measureMVM(channels, banks int, seed int64, b workloads.Bench, parallel int, observed, oracle, vary bool) (PerfSide, int64, error) {
	ctrl, p, v, err := mvmSetup(channels, banks, seed, b, parallel, false, oracle)
	if err != nil {
		return PerfSide{}, 0, err
	}
	if observed {
		ctrl.Observe(obs.New(), &obs.Tracer{})
	}
	v2 := bf16.Vector(layout.RandomMatrix(b.Cols, 1, seed+2).Data)
	// cycles totals the simulated cycles of the closure's latest call,
	// the one testing.Benchmark reports.
	var cycles int64
	var benchErr error
	bench := func(tb *testing.B) {
		tb.ReportAllocs()
		cycles = 0
		for i := 0; i < tb.N; i++ {
			in := v
			if vary && i%2 == 1 {
				in = v2
			}
			res, err := ctrl.RunMVM(p, in)
			if err != nil {
				benchErr = err
				tb.Fatal(err)
			}
			cycles += res.Cycles
		}
	}
	// Best of three repetitions: the simulated work is deterministic, so
	// repetition-to-repetition spread is entirely measurement noise
	// (scheduler preemption, frequency scaling, a noisy co-tenant on the
	// reference box), and the fastest repetition is the least-contaminated
	// estimate of the simulator's speed. The floors -checkperf enforces
	// are calibrated against this definition.
	r := testing.Benchmark(bench)
	if benchErr != nil {
		return PerfSide{}, 0, benchErr
	}
	total := cycles
	for rep := 1; rep < 3; rep++ {
		r2 := testing.Benchmark(bench)
		if benchErr != nil {
			return PerfSide{}, 0, benchErr
		}
		if r2.NsPerOp() < r.NsPerOp() {
			r, total = r2, cycles
		}
	}
	side := PerfSide{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if ns := r.T.Nanoseconds(); ns > 0 {
		side.SimCyclesPerSec = float64(total) * 1e9 / float64(ns)
	}
	return side, total / int64(r.N), nil
}

// perfEntryMVM measures one workload serially and in parallel, checks
// bit-identity on fresh controllers (parallel vs serial, and event core
// vs stepping oracle), runs a Verify-enabled parallel product so the
// report carries a conformance verdict, and prices the oracle and
// cold-event sides the v5 schema records.
func perfEntryMVM(channels, banks int, seed int64, b workloads.Bench, rep *PerfReport) (PerfEntry, error) {
	entry := PerfEntry{Name: b.Name}

	// Determinism first: fresh controllers, one product each.
	sc, sp, sv, err := mvmSetup(channels, banks, seed, b, host.ParallelOff, false, false)
	if err != nil {
		return entry, err
	}
	sres, err := sc.RunMVM(sp, sv)
	if err != nil {
		return entry, err
	}
	pc, pp, pv, err := mvmSetup(channels, banks, seed, b, 0, false, false)
	if err != nil {
		return entry, err
	}
	pres, err := pc.RunMVM(pp, pv)
	if err != nil {
		return entry, err
	}
	entry.Identical = mvmIdentical(sres, pres)

	// Event vs oracle: the same product on the stepping reference
	// engine, including a warm (second) run so the memo-replay path is
	// also held to the oracle's bytes.
	oc, op, ov, err := mvmSetup(channels, banks, seed, b, host.ParallelOff, false, true)
	if err != nil {
		return entry, err
	}
	ores, err := oc.RunMVM(op, ov)
	if err != nil {
		return entry, err
	}
	entry.OracleIdentical = mvmIdentical(sres, ores)
	if entry.OracleIdentical {
		swarm, err := sc.RunMVM(sp, sv)
		if err != nil {
			return entry, err
		}
		owarm, err := oc.RunMVM(op, ov)
		if err != nil {
			return entry, err
		}
		entry.OracleIdentical = mvmIdentical(swarm, owarm)
	}

	// Conformance: a parallel product under the independent checker.
	vc, vp, vv, err := mvmSetup(channels, banks, seed, b, 0, true, false)
	if err != nil {
		return entry, err
	}
	if _, err := vc.RunMVM(vp, vv); err != nil {
		return entry, fmt.Errorf("verify run: %w", err)
	}
	if suite := vc.Conformance(); suite != nil {
		rep.VerifyCommands += suite.Commands()
		rep.VerifyViolations += len(suite.Violations())
	}

	entry.Serial, entry.SimCycles, err = measureMVM(channels, banks, seed, b, host.ParallelOff, false, false, false)
	if err != nil {
		return entry, err
	}
	if rep.EffectiveWorkers > 1 {
		entry.Parallel, _, err = measureMVM(channels, banks, seed, b, 0, false, false, false)
		if err != nil {
			return entry, err
		}
		if entry.Parallel.NsPerOp > 0 {
			entry.Speedup = float64(entry.Serial.NsPerOp) / float64(entry.Parallel.NsPerOp)
		}
	} else {
		// One effective worker: the pool degenerates to the inline serial
		// loop, so the honest parallel measurement IS the serial one and
		// the speedup is exactly 1.0 (not the sub-1.0 noise a redundant
		// re-measurement reads on a loaded one-CPU box).
		entry.Parallel = entry.Serial
		entry.Speedup = 1.0
	}
	entry.Observed, _, err = measureMVM(channels, banks, seed, b, host.ParallelOff, true, false, false)
	if err != nil {
		return entry, err
	}
	if entry.Serial.NsPerOp > 0 {
		entry.ObsOverheadPct = 100 * (float64(entry.Observed.NsPerOp) - float64(entry.Serial.NsPerOp)) /
			float64(entry.Serial.NsPerOp)
	}
	entry.Oracle, _, err = measureMVM(channels, banks, seed, b, host.ParallelOff, false, true, false)
	if err != nil {
		return entry, err
	}
	entry.EventCold, _, err = measureMVM(channels, banks, seed, b, host.ParallelOff, false, false, true)
	if err != nil {
		return entry, err
	}
	if entry.Serial.NsPerOp > 0 {
		entry.EventSpeedupVsOracle = float64(entry.Oracle.NsPerOp) / float64(entry.Serial.NsPerOp)
	}
	return entry, nil
}

// perfEntryFig9 measures the Fig. 9 ablation sweep (a reduced two-layer
// set so -perf stays iterable) with the sweep-level pool on and off.
// This is the orchestration benchmark: it exercises the experiment
// fan-out on top of the per-channel fan-out. Its oracle side reruns the
// whole sweep on the stepping engine, so the report's differential
// verdict covers every design point of the figure, not just the full-
// Newton schedule.
func perfEntryFig9(channels, banks int, seed int64, rep *PerfReport) (PerfEntry, error) {
	entry := PerfEntry{Name: "fig9-sweep"}
	base := experiments.Default()
	base.Channels = channels
	base.Banks = banks
	base.Seed = seed
	var benches []workloads.Bench
	for _, name := range []string{"GNMT-s1", "DLRM-s1"} {
		if b, ok := workloads.ByName(name); ok {
			benches = append(benches, b)
		}
	}
	base.Benchmarks = benches

	serialCfg := base
	serialCfg.Serial = true

	sRows, sMeans, err := serialCfg.Fig9()
	if err != nil {
		return entry, err
	}
	pRows, pMeans, err := base.Fig9()
	if err != nil {
		return entry, err
	}
	entry.Identical = reflect.DeepEqual(sRows, pRows) && reflect.DeepEqual(sMeans, pMeans)

	oracleCfg := serialCfg
	oracleCfg.Oracle = true
	oRows, oMeans, err := oracleCfg.Fig9()
	if err != nil {
		return entry, err
	}
	entry.OracleIdentical = reflect.DeepEqual(sRows, oRows) && reflect.DeepEqual(sMeans, oMeans)

	measure := func(cfg experiments.Config) (PerfSide, error) {
		var benchErr error
		r := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, _, err := cfg.Fig9(); err != nil {
					benchErr = err
					tb.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return PerfSide{}, benchErr
		}
		return PerfSide{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}, nil
	}
	if entry.Serial, err = measure(serialCfg); err != nil {
		return entry, err
	}
	if rep.EffectiveWorkers > 1 {
		if entry.Parallel, err = measure(base); err != nil {
			return entry, err
		}
		if entry.Parallel.NsPerOp > 0 {
			entry.Speedup = float64(entry.Serial.NsPerOp) / float64(entry.Parallel.NsPerOp)
		}
	} else {
		entry.Parallel = entry.Serial
		entry.Speedup = 1.0
	}
	if entry.Oracle, err = measure(oracleCfg); err != nil {
		return entry, err
	}
	if entry.Serial.NsPerOp > 0 {
		entry.EventSpeedupVsOracle = float64(entry.Oracle.NsPerOp) / float64(entry.Serial.NsPerOp)
	}
	return entry, nil
}

// perfFleet measures the v3 fleet section: a 4-device Newton cluster
// replaying a saturating Poisson stream (offered load past the fleet
// knee), against a single-device fleet as the router-overhead baseline.
func perfFleet(channels, banks int, seed int64) (*FleetPerf, error) {
	const (
		fleetDevices  = 4
		fleetRequests = 100_000
		fleetOffered  = 1.5e7
	)
	bench, ok := workloads.ByName("DLRM-s1")
	if !ok {
		return nil, fmt.Errorf("DLRM-s1 missing from Table II")
	}
	cfg := newton.DefaultConfig()
	cfg.Channels = channels
	cfg.Banks = banks
	build := func(replicas int) (*newton.Cluster, error) {
		return cfg.NewCluster(newton.ClusterConfig{
			Models: []newton.ClusterModel{
				{Name: bench.Name, Rows: bench.Rows, Cols: bench.Cols, Replicas: replicas},
			},
			Options: newton.ClusterOptions{MaxBatch: 1},
			Seed:    seed,
		})
	}
	reqs := newton.PoissonRequests(fleetRequests, fleetOffered, nil, 11)

	// Byte-identity: two independently built and calibrated fleets must
	// expose identical Prometheus bytes for the same stream.
	expose := func() (string, *newton.ClusterResult, error) {
		cl, err := build(fleetDevices)
		if err != nil {
			return "", nil, err
		}
		reg := newton.NewObsRegistry()
		cl.Observe(reg, nil)
		res, err := cl.Replay(reqs)
		if err != nil {
			return "", nil, err
		}
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			return "", nil, err
		}
		return buf.String(), res, nil
	}
	expA, res, err := expose()
	if err != nil {
		return nil, err
	}
	expB, _, err := expose()
	if err != nil {
		return nil, err
	}
	fp := &FleetPerf{
		Devices:    fleetDevices,
		Requests:   fleetRequests,
		OfferedQPS: fleetOffered,
		FleetQPS:   res.Total.Throughput(),
		Identical:  expA == expB,
	}

	// Wall cost per routed request, unmetered (nil-registry fast path).
	measure := func(replicas int) (int64, error) {
		cl, err := build(replicas)
		if err != nil {
			return 0, err
		}
		var benchErr error
		r := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := cl.Replay(reqs); err != nil {
					benchErr = err
					tb.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return 0, benchErr
		}
		return r.NsPerOp() / int64(len(reqs)), nil
	}
	if fp.NsPerRequest, err = measure(fleetDevices); err != nil {
		return nil, err
	}
	if fp.SingleNsPerRequest, err = measure(1); err != nil {
		return nil, err
	}
	if fp.SingleNsPerRequest > 0 {
		fp.RouterOverheadPct = 100 * float64(fp.NsPerRequest-fp.SingleNsPerRequest) /
			float64(fp.SingleNsPerRequest)
	}
	return fp, nil
}

// perfE2E measures the v4 e2e section: the whole-model serving study at
// the report's configuration, a device-rerun determinism check, and the
// wall cost of one on-device DLRM inference.
func perfE2E(channels, banks int, seed int64) (*E2EPerf, error) {
	cfg := experiments.Default()
	cfg.Channels = channels
	cfg.Banks = banks
	cfg.Seed = seed
	rows, mean, err := cfg.E2E(nil)
	if err != nil {
		return nil, err
	}
	ep := &E2EPerf{GeomeanSpeedup: mean}
	for _, r := range rows {
		ep.Models = append(ep.Models, E2EModelPerf{
			Name:           r.Name,
			DeviceCycles:   r.DeviceCycles,
			HostLoopCycles: r.HostLoopCycles[len(r.HostLoopCycles)-1],
			Ratio:          r.Ratio,
			Instrs:         r.DeviceInstrs,
			MaxAbsDiff:     r.MaxAbsDiff,
		})
	}

	// Determinism: two independently placed and compiled device runs of
	// DLRM must agree bit for bit.
	spec := workloads.DLRM()
	input := make([]float32, spec.InputWidth())
	for i := range input {
		input[i] = float32(i%7)/7 - 0.5
	}
	deviceRun := func() (*host.Controller, *nn.DeviceRunResult, error) {
		geo := dram.HBM2EGeometry(channels)
		geo.Banks = banks
		ctrl, err := host.NewController(dram.Config{Geometry: geo, Timing: dram.AiMTiming()}, host.Newton())
		if err != nil {
			return nil, nil, err
		}
		pm, err := nn.PlaceModel(ctrl, spec, seed)
		if err != nil {
			return nil, nil, err
		}
		res, err := nn.RunOnDevice(ctrl, pm, input)
		return ctrl, res, err
	}
	_, a, err := deviceRun()
	if err != nil {
		return nil, err
	}
	_, b, err := deviceRun()
	if err != nil {
		return nil, err
	}
	ep.Identical = a.Cycles == b.Cycles && a.Refreshes == b.Refreshes &&
		a.Instrs == b.Instrs && len(a.Output) == len(b.Output)
	if ep.Identical {
		for i := range a.Output {
			if math.Float32bits(a.Output[i]) != math.Float32bits(b.Output[i]) {
				ep.Identical = false
				break
			}
		}
	}

	// Wall cost of one inference through the executor (compile + replay).
	ctrl, _, err := deviceRun()
	if err != nil {
		return nil, err
	}
	pm, err := nn.PlaceModel(ctrl, spec, seed+1)
	if err != nil {
		return nil, err
	}
	ex, err := nn.NewExecutor(ctrl, pm)
	if err != nil {
		return nil, err
	}
	var benchErr error
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			if _, err := ex.Run(input); err != nil {
				benchErr = err
				tb.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}
	ep.NsPerInference = r.NsPerOp()
	return ep, nil
}

// perfCoexist measures the v6 coexistence section: the QoS interference
// sweep on the small DLRM layer at the report's channel configuration,
// rerun on the stepping oracle for the determinism verdict.
func perfCoexist(channels, banks int, seed int64) (*CoexistPerf, error) {
	bench, ok := workloads.ByName("DLRM-s1")
	if !ok {
		return nil, fmt.Errorf("DLRM-s1 missing from Table II")
	}
	cfg := experiments.Default()
	cfg.Channels = channels
	cfg.Banks = banks
	cfg.Seed = seed
	cfg.Benchmarks = []workloads.Bench{bench}
	cfg.ServingN = 8 // shortens the per-point MVM sample count
	pts, err := cfg.Coexistence()
	if err != nil {
		return nil, err
	}
	oracleCfg := cfg
	oracleCfg.Oracle = true
	oracleCfg.Serial = true
	opts, err := oracleCfg.Coexistence()
	if err != nil {
		return nil, err
	}
	top := experiments.CoexistIntensities[len(experiments.CoexistIntensities)-1]
	cp := &CoexistPerf{
		Intensity: top,
		Identical: reflect.DeepEqual(pts, opts),
	}
	for _, p := range pts {
		if p.Intensity == top {
			cp.Policies = append(cp.Policies, CoexistPolicyPerf{
				Policy:  p.Policy,
				HostGBs: p.HostGBs,
				PIMP99:  p.PIMP99,
			})
		}
	}
	return cp, nil
}

// runPerf measures the report and writes it to path.
func runPerf(channels, banks int, seed int64, path string) error {
	rep := PerfReport{
		Schema:     PerfSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Channels:   channels,
		Banks:      banks,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		// The MVM parallel side fans channels onto the pool; the pool
		// can never usefully exceed the channel count or GOMAXPROCS.
		EffectiveWorkers: par.Effective(0, channels),
	}
	for _, b := range perfWorkloads() {
		fmt.Fprintf(os.Stderr, "perf: measuring %s...\n", b.Name)
		entry, err := perfEntryMVM(channels, banks, seed, b, &rep)
		if err != nil {
			return fmt.Errorf("perf %s: %w", b.Name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, entry)
	}
	fmt.Fprintf(os.Stderr, "perf: measuring fig9-sweep...\n")
	entry, err := perfEntryFig9(channels, banks, seed, &rep)
	if err != nil {
		return fmt.Errorf("perf fig9-sweep: %w", err)
	}
	rep.Benchmarks = append(rep.Benchmarks, entry)
	fmt.Fprintf(os.Stderr, "perf: measuring fleet...\n")
	if rep.Fleet, err = perfFleet(channels, banks, seed); err != nil {
		return fmt.Errorf("perf fleet: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perf: measuring e2e...\n")
	if rep.E2E, err = perfE2E(channels, banks, seed); err != nil {
		return fmt.Errorf("perf e2e: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perf: measuring coexist...\n")
	if rep.Coexist, err = perfCoexist(channels, banks, seed); err != nil {
		return fmt.Errorf("perf coexist: %w", err)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	for _, e := range rep.Benchmarks {
		fmt.Printf("%-12s serial %12d ns/op (%d allocs)  parallel %12d ns/op (%d allocs)  speedup %.2fx  identical=%v",
			e.Name, e.Serial.NsPerOp, e.Serial.AllocsPerOp,
			e.Parallel.NsPerOp, e.Parallel.AllocsPerOp, e.Speedup, e.Identical)
		if e.Observed.NsPerOp > 0 {
			fmt.Printf("  obs-overhead %+.1f%%", e.ObsOverheadPct)
		}
		if e.Oracle.NsPerOp > 0 {
			fmt.Printf("  event-vs-oracle %.1fx (oracle %d ns/op, cold %d ns/op)  oracle-identical=%v",
				e.EventSpeedupVsOracle, e.Oracle.NsPerOp, e.EventCold.NsPerOp, e.OracleIdentical)
		}
		fmt.Println()
	}
	fmt.Printf("effective workers: %d\n", rep.EffectiveWorkers)
	if f := rep.Fleet; f != nil {
		fmt.Printf("fleet        %d devices  %.2fM qps served @ %.0fM offered  %d ns/request (single-device %d, router overhead %+.1f%%)  identical=%v\n",
			f.Devices, f.FleetQPS/1e6, f.OfferedQPS/1e6,
			f.NsPerRequest, f.SingleNsPerRequest, f.RouterOverheadPct, f.Identical)
	}
	if e := rep.E2E; e != nil {
		fmt.Printf("e2e          %d models  geomean on-device speedup %.2fx  %d ns/inference (DLRM)  identical=%v\n",
			len(e.Models), e.GeomeanSpeedup, e.NsPerInference, e.Identical)
	}
	if cx := rep.Coexist; cx != nil {
		fmt.Printf("coexist      @%g req/us:", cx.Intensity)
		for _, p := range cx.Policies {
			fmt.Printf("  %s %.3f GB/s p99=%d", p.Policy, p.HostGBs, p.PIMP99)
		}
		fmt.Printf("  identical=%v\n", cx.Identical)
	}
	fmt.Printf("conformance: %d commands checked, %d violations (gomaxprocs=%d, cpus=%d)\n",
		rep.VerifyCommands, rep.VerifyViolations, rep.GOMAXPROCS, rep.CPUs)
	return nil
}

// checkPerf validates a -perf report file against the schema; CI runs
// it so a drifting report format or a broken determinism check fails
// the build rather than silently corrupting the trajectory. With a
// baseline report given (-baseline), it additionally fails if any MVM
// entry's serial simulator throughput dropped more than 10% below the
// baseline's — the cross-PR throughput-regression gate.
func checkPerf(path, baselinePath string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != PerfSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, PerfSchema)
	}
	if rep.CPUs < 1 || rep.GOMAXPROCS < 1 || rep.GoVersion == "" {
		return fmt.Errorf("%s: missing environment fields", path)
	}
	if rep.EffectiveWorkers < 1 {
		return fmt.Errorf("%s: effective_workers %d, want >= 1", path, rep.EffectiveWorkers)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks", path)
	}
	for _, e := range rep.Benchmarks {
		if e.Name == "" {
			return fmt.Errorf("%s: unnamed benchmark entry", path)
		}
		if e.Serial.NsPerOp <= 0 || e.Parallel.NsPerOp <= 0 {
			return fmt.Errorf("%s: %s has non-positive ns/op", path, e.Name)
		}
		if e.Speedup < 1.0 {
			return fmt.Errorf("%s: %s parallel speedup %.3fx is below 1.0 (with %d effective workers the pool must never lose to the serial loop; at 1 it degenerates to exactly it)",
				path, e.Name, e.Speedup, rep.EffectiveWorkers)
		}
		if !e.Identical {
			return fmt.Errorf("%s: %s failed the serial/parallel identity check", path, e.Name)
		}
		if !e.OracleIdentical {
			return fmt.Errorf("%s: %s failed the event-vs-oracle identity check", path, e.Name)
		}
		if e.Oracle.NsPerOp <= 0 {
			return fmt.Errorf("%s: %s is missing the oracle measurement", path, e.Name)
		}
		if e.EventSpeedupVsOracle < 1.0 {
			return fmt.Errorf("%s: %s event core is %.2fx the oracle — slower than the engine it replaced",
				path, e.Name, e.EventSpeedupVsOracle)
		}
		if floor, ok := simThroughputFloors[e.Name]; ok {
			if e.Serial.SimCyclesPerSec < floor {
				return fmt.Errorf("%s: %s serial throughput %.0f sim-cycles/s is below the %.0f floor (10x the PR7 stepping core)",
					path, e.Name, e.Serial.SimCyclesPerSec, floor)
			}
			if e.EventCold.NsPerOp <= 0 {
				return fmt.Errorf("%s: %s is missing the cold-event measurement", path, e.Name)
			}
		}
		if budget, ok := obsOffAllocBudgets[e.Name]; ok {
			if e.Serial.AllocsPerOp > budget {
				return fmt.Errorf("%s: %s obs-off serial allocs/op = %d, budget is %d (the nil-registry hot path regressed)",
					path, e.Name, e.Serial.AllocsPerOp, budget)
			}
			if e.Observed.NsPerOp <= 0 {
				return fmt.Errorf("%s: %s is missing the observed (obs-on) measurement", path, e.Name)
			}
		}
	}
	if rep.VerifyViolations != 0 {
		return fmt.Errorf("%s: %d conformance violations recorded", path, rep.VerifyViolations)
	}
	f := rep.Fleet
	if f == nil {
		return fmt.Errorf("%s: missing fleet section (required since %s)", path, PerfSchema)
	}
	if f.Devices < 4 {
		return fmt.Errorf("%s: fleet has %d devices, want >= 4", path, f.Devices)
	}
	if f.FleetQPS < 1e7 {
		return fmt.Errorf("%s: fleet capacity %.2fM qps is below the 10M floor", path, f.FleetQPS/1e6)
	}
	if f.NsPerRequest <= 0 {
		return fmt.Errorf("%s: fleet has non-positive ns/request", path)
	}
	if !f.Identical {
		return fmt.Errorf("%s: fleet failed the rebuild byte-identity check", path)
	}
	e := rep.E2E
	if e == nil {
		return fmt.Errorf("%s: missing e2e section (required since %s)", path, PerfSchema)
	}
	if len(e.Models) < 3 {
		return fmt.Errorf("%s: e2e covers %d models, want >= 3", path, len(e.Models))
	}
	exact := false
	for _, m := range e.Models {
		if m.Ratio < 1.0 {
			return fmt.Errorf("%s: e2e %s on-device speedup %.2fx is below 1.0x (the single-program path regressed)",
				path, m.Name, m.Ratio)
		}
		if m.Instrs <= 0 || m.DeviceCycles <= 0 {
			return fmt.Errorf("%s: e2e %s has a degenerate device run", path, m.Name)
		}
		if m.MaxAbsDiff > 4 {
			return fmt.Errorf("%s: e2e %s max |diff| %.3g exceeds the documented LUT envelope", path, m.Name, m.MaxAbsDiff)
		}
		if m.MaxAbsDiff == 0 {
			exact = true
		}
	}
	if !exact {
		return fmt.Errorf("%s: no e2e model on the exact (bit-identical) path", path)
	}
	if e.GeomeanSpeedup < 1.0 {
		return fmt.Errorf("%s: e2e geomean speedup %.2fx is below 1.0x", path, e.GeomeanSpeedup)
	}
	if e.NsPerInference <= 0 {
		return fmt.Errorf("%s: e2e has non-positive ns/inference", path)
	}
	if !e.Identical {
		return fmt.Errorf("%s: e2e failed the device-rerun byte-identity check", path)
	}
	cx := rep.Coexist
	if cx == nil {
		return fmt.Errorf("%s: missing coexist section (required since %s)", path, PerfSchema)
	}
	if len(cx.Policies) < 3 {
		return fmt.Errorf("%s: coexist covers %d policies, want all 3", path, len(cx.Policies))
	}
	cells := make(map[string]CoexistPolicyPerf, len(cx.Policies))
	for _, p := range cx.Policies {
		cells[p.Policy] = p
	}
	pim, fair, memp := cells["pim-priority"], cells["fair-slice"], cells["mem-priority"]
	if pim.Policy == "" || fair.Policy == "" || memp.Policy == "" {
		return fmt.Errorf("%s: coexist section is missing a policy cell (%v)", path, cx.Policies)
	}
	if pim.HostGBs != 0 {
		return fmt.Errorf("%s: coexist pim-priority served %.3f GB/s during runs; the policy must starve the host", path, pim.HostGBs)
	}
	if !(memp.HostGBs > fair.HostGBs && fair.HostGBs > 0) {
		return fmt.Errorf("%s: coexist host bandwidth ordering inverted: mem %.3f, fair %.3f GB/s", path, memp.HostGBs, fair.HostGBs)
	}
	if !(pim.PIMP99 <= fair.PIMP99 && fair.PIMP99 <= memp.PIMP99 && pim.PIMP99 < memp.PIMP99) {
		return fmt.Errorf("%s: coexist PIM p99 ordering inverted: pim %d, fair %d, mem %d", path, pim.PIMP99, fair.PIMP99, memp.PIMP99)
	}
	if !cx.Identical {
		return fmt.Errorf("%s: coexist failed the event-vs-oracle byte-identity check", path)
	}
	if baselinePath != "" {
		if err := checkPerfBaseline(&rep, path, baselinePath); err != nil {
			return err
		}
	}
	fmt.Printf("%s: valid %s report, %d benchmarks + fleet + e2e + coexist, 0 violations\n", path, PerfSchema, len(rep.Benchmarks))
	return nil
}

// checkPerfBaseline fails if any MVM entry's serial simulator throughput
// dropped more than 10% below the committed baseline report's. The
// baseline is parsed leniently — names and serial sim-cycles/second only
// — so a baseline from an older schema still anchors the gate.
func checkPerfBaseline(rep *PerfReport, path, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base struct {
		Benchmarks []struct {
			Name   string `json:"name"`
			Serial struct {
				SimCyclesPerSec float64 `json:"sim_cycles_per_wall_second"`
			} `json:"serial"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	anchors := make(map[string]float64)
	for _, b := range base.Benchmarks {
		if b.Serial.SimCyclesPerSec > 0 {
			anchors[b.Name] = b.Serial.SimCyclesPerSec
		}
	}
	if len(anchors) == 0 {
		return fmt.Errorf("%s: baseline has no serial throughput entries to anchor against", baselinePath)
	}
	const maxDrop = 0.10
	compared := 0
	for _, e := range rep.Benchmarks {
		anchor, ok := anchors[e.Name]
		if !ok || e.Serial.SimCyclesPerSec <= 0 {
			continue
		}
		compared++
		if e.Serial.SimCyclesPerSec < anchor*(1-maxDrop) {
			return fmt.Errorf("%s: %s serial throughput %.0f sim-cycles/s regressed %.1f%% from the %s baseline's %.0f (limit 10%%)",
				path, e.Name, e.Serial.SimCyclesPerSec,
				100*(1-e.Serial.SimCyclesPerSec/anchor), baselinePath, anchor)
		}
		fmt.Printf("%s: %s serial %.0f sim-cycles/s vs baseline %.0f (%+.1f%%)\n",
			path, e.Name, e.Serial.SimCyclesPerSec, anchor,
			100*(e.Serial.SimCyclesPerSec/anchor-1))
	}
	if compared == 0 {
		return fmt.Errorf("%s: no benchmark names overlap the %s baseline", path, baselinePath)
	}
	return nil
}
