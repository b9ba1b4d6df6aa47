package main

import (
	"fmt"
	"io"
	"math"

	"newton"
	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/mem"
	"newton/internal/obs"
	"newton/internal/workloads"
)

// coexistTraffic is coexist-rw's conventional workload: 8 requests per
// µs per channel, reads and writes about 1:1, uniform row locality.
func coexistTraffic(seed int64) newton.TrafficConfig {
	return newton.TrafficConfig{
		IntensityReqPerUs: 8, ReadFraction: 0.5,
		Locality: newton.TrafficUniform, Seed: seed*101 + 70,
	}
}

// coexistConfig is mvm-cold's paper configuration with the traffic
// arbitrated under fair-slice QoS and the conformance checker attached.
func coexistConfig(seed int64) newton.Config {
	cfg := newton.DefaultConfig()
	cfg.Coexist = &newton.CoexistConfig{Traffic: coexistTraffic(seed), Policy: newton.PolicyFairSlice}
	cfg.Verify = true
	return cfg
}

// coexistRec is one recorded op: the product and the traffic state
// after its drain.
type coexistRec struct {
	out     []float32
	st      newton.RunStats
	cycles  int64
	traffic newton.TrafficStats
}

func runCoexist(b *bench) error {
	layers, err := tableII("GNMT-s1")
	if err != nil {
		return err
	}
	l := layers[0]
	var sys *newton.System
	var mat *newton.Matrix
	var pm *newton.PlacedMatrix
	var reg *newton.ObsRegistry
	err = b.setup(func() error {
		s, err := newton.NewSystem(coexistConfig(b.seed))
		if err != nil {
			return err
		}
		mat = newton.RandomMatrix(l.Rows, l.Cols, matSeed(b.seed, 0))
		if pm, err = s.Load(mat); err != nil {
			return err
		}
		reg = newton.NewObsRegistry()
		s.Observe(reg, &newton.ObsTracer{})
		sys = s
		return nil
	})
	if err != nil {
		return err
	}
	var cur coexistRec
	var recs []coexistRec // the first oracleOps ops, for the oracle replay
	b.main = b.loop(b.budget(), digestOps, 1, func(i int) (int64, int64, error) {
		t0 := sys.Now()
		out, st, err := sys.MatVec(pm, inputVec(b.seed, i, l.Cols))
		if err == nil {
			err = sys.DrainTraffic()
		}
		cur = coexistRec{out: out, st: st, cycles: sys.Now() - t0}
		return 1, sys.Now() - t0, err
	}, func(i int) {
		// TrafficStats sorts every latency so far, so it is read only
		// for the ops the digest and the oracle replay compare.
		if i < digestOps {
			cur.traffic = sys.TrafficStats()
		}
		b.corruptOutput(i, cur.out)
		if i < oracleOps {
			recs = append(recs, cur)
		}
		if cur.out == nil {
			return
		}
		b.checkMatVec(i, mat, l.Cols, cur.out)
		if i < digestOps {
			t := cur.traffic
			b.digest.floats(cur.out)
			b.digest.ints(cur.cycles, cur.st.Cycles, cur.st.Commands, cur.st.Activations, cur.st.Refreshes,
				cur.st.ExternalBytesRead, cur.st.ExternalBytesWritten, cur.st.InternalBytesRead,
				t.Requests, t.Reads, t.Writes, t.Bytes, t.P50, t.P95, t.P99, t.Max,
				t.InRunBytes, t.BetweenBytes, t.StallCycles)
			b.digest.float64s(t.MeanLatency)
		}
	})
	// Verify fails a violating op with an error, which the loop counts;
	// the system's own conformance counters must also show the checker
	// ran and found nothing.
	if checked, viol := seriesSum(reg, "newton_host_verified_commands_total"),
		seriesSum(reg, "newton_host_conformance_violations_total"); checked == 0 || viol != 0 {
		b.fail(max(int64(viol), 1), "conformance counters: %g commands checked, %g violations", checked, viol)
	}
	return b.oracleCoexist(l, recs)
}

// hostCoexist is coexist-rw's system rebuilt from the host, layout and
// mem layers.
type hostCoexist struct {
	ctrl *host.Controller
	p    *layout.Placement
}

// newHostCoexist builds the replica; opts gets fair-slice QoS. sp, when
// non-nil, times matrix generation and placement.
func newHostCoexist(seed int64, l workloads.Bench, opts host.Options, sp spans) (*hostCoexist, error) {
	opts.QoS = mem.QoS{Policy: mem.FairSlice}
	h, err := newHostMVM(seed, []workloads.Bench{l}, opts, sp)
	if err != nil {
		return nil, err
	}
	t := coexistTraffic(seed)
	g := paperDRAM().Geometry
	tr, err := mem.New(mem.TrafficConfig{
		IntensityReqPerUs: t.IntensityReqPerUs, ReadFraction: t.ReadFraction,
		Locality: mem.LocalityUniform, Seed: t.Seed,
	}, g.Channels, g.Banks, g.Cols, g.ColBytes())
	if err != nil {
		return nil, err
	}
	if err := h.ctrl.AttachTraffic(tr); err != nil {
		return nil, err
	}
	return &hostCoexist{ctrl: h.ctrl, p: h.ps[0]}, nil
}

// op is one coexist-rw op on the replica: the product, then the drain.
func (h *hostCoexist) op(v bf16.Vector, sp spans) (*host.Result, error) {
	var res *host.Result
	mvm := func() (err error) { res, err = h.ctrl.RunMVM(h.p, v); return err }
	drain := h.ctrl.ServiceArrivedTraffic
	err := sp.time("host.mvm", mvm)
	if err == nil {
		err = sp.time("mem.drain", drain)
	}
	return res, err
}

// oracleCoexist replays the first oracleOps ops on the host-level event
// core and stepping oracle: products, clocks, dram.Stats and traffic
// reports must agree exactly, and match the facade's record.
func (b *bench) oracleCoexist(l workloads.Bench, recs []coexistRec) error {
	ev, err := newHostCoexist(b.seed, l, paperOptions(), nil)
	if err != nil {
		return err
	}
	oopts := paperOptions()
	oopts.Oracle = true
	or, err := newHostCoexist(b.seed, l, oopts, nil)
	if err != nil {
		return err
	}
	for i := 0; i < oracleOps && i < len(recs); i++ {
		v := bf16.FromFloat32Slice(inputVec(b.seed, i, l.Cols))
		er, err := ev.op(v, nil)
		if err != nil {
			return err
		}
		orr, err := or.op(v, nil)
		if err != nil {
			return err
		}
		etr, otr := ev.ctrl.TrafficReport(), or.ctrl.TrafficReport()
		if msg := diffResults(er, orr); msg != "" || etr != otr || ev.ctrl.Now() != or.ctrl.Now() ||
			ev.ctrl.Stats() != or.ctrl.Stats() {
			b.fail(1, "op %d: event core and stepping oracle differ under traffic %s", i, msg)
			continue
		}
		r := recs[i]
		if r.out == nil {
			continue
		}
		if !sameBits(r.out, er.Output) || r.st.Cycles != er.Cycles || r.traffic.Requests != etr.Summary.Requests ||
			r.traffic.Writes != etr.Summary.Writes || r.traffic.P99 != etr.Summary.P99 ||
			r.traffic.InRunBytes != etr.InRunBytes || r.traffic.StallCycles != etr.StallCycles {
			b.fail(1, "op %d: facade run differs from its host-level replay", i)
		}
	}
	return nil
}

// traceCoexist is coexist-rw's traced run on a replica with the checker
// and observability attached, as the facade has them: product and drain
// timed apart, then the checker timed on one op's captured command
// stream and observability timed as paired ops with and without it.
func (b *bench) traceCoexist() error {
	layers, err := tableII("GNMT-s1")
	if err != nil {
		return err
	}
	l := layers[0]
	sp := spans{}
	vopts := paperOptions()
	vopts.Verify = true
	h, err := newHostCoexist(b.seed, l, vopts, sp)
	if err != nil {
		return err
	}
	reg, tracer := obs.New(), &obs.Tracer{}
	h.ctrl.Observe(reg, tracer)
	var st dram.Stats
	var mvmCycles int64
	tr0 := h.ctrl.TrafficReport()
	checked0 := h.ctrl.Conformance().Commands()
	traced := b.loop(b.budget(), digestOps, 1, func(i int) (int64, int64, error) {
		t0, before := h.ctrl.Now(), h.ctrl.Stats()
		res, err := h.op(bf16.FromFloat32Slice(inputVec(b.seed, i, l.Cols)), sp)
		if err != nil {
			return 1, 0, err
		}
		st.Add(h.ctrl.Stats().Diff(before))
		mvmCycles += res.Cycles
		return 1, h.ctrl.Now() - t0, nil
	}, nil)
	ops := float64(max(traced.units, 1))
	b.layoutLayer(sp)
	b.hostLayer(sp.totalNs("host.mvm"), mvmCycles, ops, st)

	tr := h.ctrl.TrafficReport()
	served := tr.Summary.Requests - tr0.Summary.Requests
	b.layer["mem.drain_ms"] = sp.medianMs("mem.drain")
	b.layer["mem.served_per_op"] = float64(served) / ops
	b.layer["mem.write_share"] = float64(tr.Summary.Writes-tr0.Summary.Writes) / math.Max(float64(served), 1)
	b.layer["mem.stall_cycles_per_op"] = float64(tr.StallCycles-tr0.StallCycles) / ops
	b.layer["mem.host_p99_cycles"] = float64(tr.Summary.P99)
	b.layer["mem.in_run_gbps"] = float64(tr.InRunBytes-tr0.InRunBytes) / math.Max(float64(mvmCycles), 1)

	suite := h.ctrl.Conformance()
	b.layer["conformance.cmds_checked_per_op"] = float64(suite.Commands()-checked0) / ops
	violations := len(suite.Violations())
	nsPerCmd, traceViolations, err := b.checkCapturedOp(l)
	if err != nil {
		return err
	}
	violations += traceViolations
	if violations > 0 {
		b.fail(int64(violations), "%d conformance violations under traffic", violations)
	}
	b.layer["conformance.violations"] = float64(violations)
	b.layer["conformance.ns_per_cmd"] = nsPerCmd

	ex := spans{}
	for range 5 {
		if err := ex.time("export", func() error { return reg.WritePrometheus(io.Discard) }); err != nil {
			return err
		}
	}
	b.layer["obs.series"] = float64(countSeries(reg))
	b.layer["obs.spans"] = float64(tracer.Len())
	b.layer["obs.export_ms"] = ex.medianMs("export")
	if err := b.obsOverhead(l, vopts); err != nil {
		return err
	}
	b.overhead(traced)
	return nil
}

// countSeries is the number of labelled series the registry holds.
func countSeries(reg *obs.Registry) int {
	n := 0
	for _, f := range reg.Snapshot().Metrics {
		n += len(f.Series)
	}
	return n
}

// seriesSum is the sum over a metric family's series.
func seriesSum(reg *obs.Registry, name string) float64 {
	var v float64
	for _, f := range reg.Snapshot().Metrics {
		if f.Name == name {
			for _, s := range f.Series {
				v += s.Value
			}
		}
	}
	return v
}

// checkCapturedOp captures the command stream of one coexist-rw op
// (product and drain) on a fresh replica and times conformance.CheckTrace
// over it, channel by channel. It returns the host ns per checked
// command and the violations found.
func (b *bench) checkCapturedOp(l workloads.Bench) (float64, int, error) {
	h, err := newHostCoexist(b.seed, l, paperOptions(), nil)
	if err != nil {
		return 0, 0, err
	}
	cfg := paperDRAM()
	traces := make([][]conformance.TimedCommand, cfg.Geometry.Channels)
	h.ctrl.Trace = func(ch int, cmd dram.Command, cycle int64, _ aim.Result) {
		traces[ch] = append(traces[ch], conformance.TimedCommand{Cycle: cycle, Cmd: cmd})
	}
	if _, err := h.op(bf16.FromFloat32Slice(inputVec(b.seed, 0, l.Cols)), nil); err != nil {
		return 0, 0, err
	}
	sp := spans{}
	var cmds, violations int
	for _, tr := range traces {
		var vs []conformance.Violation
		err := sp.time("check", func() (err error) {
			vs, err = conformance.CheckTrace(cfg, conformance.Options{Coexist: true}, tr)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		cmds += len(tr)
		violations += len(vs)
	}
	if cmds == 0 {
		return 0, 0, fmt.Errorf("captured no commands")
	}
	return sp.totalNs("check") / float64(cmds), violations, nil
}

// obsOverhead times paired ops on two identical replicas, one observed
// and one not, alternating which goes first; obs.overhead_ratio is the
// observed median over the unobserved one.
func (b *bench) obsOverhead(l workloads.Bench, opts host.Options) error {
	on, err := newHostCoexist(b.seed, l, opts, nil)
	if err != nil {
		return err
	}
	on.ctrl.Observe(obs.New(), &obs.Tracer{})
	off, err := newHostCoexist(b.seed, l, opts, nil)
	if err != nil {
		return err
	}
	sp := spans{}
	for i := range 10 {
		v := bf16.FromFloat32Slice(inputVec(b.seed, i, l.Cols))
		pair := []struct {
			name string
			h    *hostCoexist
		}{{"on", on}, {"off", off}}
		if i%2 == 1 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		for _, p := range pair {
			if err := sp.time(p.name, func() error { _, err := p.h.op(v, nil); return err }); err != nil {
				return err
			}
		}
	}
	b.layer["obs.overhead_ratio"] = sp.medianMs("on") / sp.medianMs("off")
	b.logf("obs.overhead_ratio = observed %.4g ms / unobserved base %.4g ms per op (10 interleaved pairs)",
		sp.medianMs("on"), sp.medianMs("off"))
	return nil
}
