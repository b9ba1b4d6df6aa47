package main

import (
	"fmt"
	"math"

	"newton"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/workloads"
)

// mvmLayers are mvm-cold's three Table II shapes (tall, wide, square):
// each costs about the same host time per product, so the per-op
// distribution has one mode.
var mvmLayers = []string{"GNMT-s1", "BERT-s2", "AlexNet-L7"}

const (
	// digestOps is how many leading ops of a run feed the digest; every
	// workload completes at least this many, so the digest does not
	// depend on host speed.
	digestOps = 24
	// oracleOps is how many leading ops are replayed, outside the timed
	// phase, on the event core and on the stepping oracle built directly
	// from the host layer; all three runs must agree byte for byte.
	oracleOps = 6
)

// matVecTol is the absolute bound internal/host's
// TestMVMMatchesDatapathReferenceExactly holds the bf16 datapath to
// against the float32 product, for a row of cols elements.
func matVecTol(cols int) float64 { return 0.05*float64(cols)/64 + 0.5 }

// tableII returns the named Table II layers.
func tableII(names ...string) ([]workloads.Bench, error) {
	out := make([]workloads.Bench, len(names))
	for i, n := range names {
		l, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("no Table II layer %s", n)
		}
		out[i] = l
	}
	return out, nil
}

// matSeed is the weight seed of a run's j-th matrix.
func matSeed(seed int64, j int) int64 { return seed*101 + int64(j) }

// paperDRAM and paperOptions are what newton.DefaultConfig lowers to:
// 24 channels of 16 banks with AiM timing, every optimization on. The
// host-level replicas below use them to rebuild a workload's system
// from the layers' public functions.
func paperDRAM() dram.Config {
	geo := dram.HBM2EGeometry(24)
	geo.Banks = 16
	return dram.Config{Geometry: geo, Timing: dram.AiMTiming()}
}

func paperOptions() host.Options {
	return host.Options{
		GangedCompute: true, ComplexCommands: true, Reuse: true,
		GangedActivation: true, OverlapBufferLoad: true, NormExposureCycles: 100,
	}
}

// mvmRec is one recorded MatVec: what the facade returned.
type mvmRec struct {
	layer int
	out   []float32
	st    newton.RunStats
}

func runMVMCold(b *bench) error {
	layers, err := tableII(mvmLayers...)
	if err != nil {
		return err
	}
	var sys *newton.System
	var mats []*newton.Matrix
	var pms []*newton.PlacedMatrix
	err = b.setup(func() error {
		sys, mats, pms = nil, nil, nil
		s, err := newton.NewSystem(newton.DefaultConfig())
		if err != nil {
			return err
		}
		for j, l := range layers {
			m := newton.RandomMatrix(l.Rows, l.Cols, matSeed(b.seed, j))
			pm, err := s.Load(m)
			if err != nil {
				return err
			}
			mats, pms = append(mats, m), append(pms, pm)
		}
		sys = s
		return nil
	})
	if err != nil {
		return err
	}
	var cur mvmRec
	var recs []mvmRec // the first oracleOps ops, for the oracle replay
	b.main = b.loop(b.budget(), digestOps, len(layers), func(i int) (int64, int64, error) {
		j := i % len(layers)
		out, st, err := sys.MatVec(pms[j], inputVec(b.seed, i, layers[j].Cols))
		cur = mvmRec{layer: j, out: out, st: st}
		return 1, st.Cycles, err
	}, func(i int) {
		b.corruptOutput(i, cur.out)
		if i < oracleOps {
			recs = append(recs, cur)
		}
		if cur.out == nil {
			return
		}
		l := layers[cur.layer]
		b.checkMatVec(i, mats[cur.layer], l.Cols, cur.out)
		if i < digestOps {
			b.digest.floats(cur.out)
			b.digest.ints(cur.st.Cycles, cur.st.Commands, cur.st.Activations, cur.st.Refreshes,
				cur.st.ExternalBytesRead, cur.st.ExternalBytesWritten, cur.st.InternalBytesRead)
		}
	})
	return b.oracleMVM(layers, recs)
}

// checkMatVec fails op i when its output is not within matVecTol of
// the matrix's MulVecReference on the op's input.
func (b *bench) checkMatVec(i int, m *newton.Matrix, cols int, out []float32) {
	ref, err := m.MulVecReference(inputVec(b.seed, i, cols))
	if err != nil {
		b.fail(1, "op %d: MulVecReference: %v", i, err)
		return
	}
	tol := matVecTol(cols)
	if k, ok := withinAbs(out, ref, tol); !ok {
		b.fail(1, "op %d: MatVec output[%d] off MulVecReference by more than %g", i, k, tol)
	}
}

// hostMVM is mvm-cold's system rebuilt from the layers' public
// functions: the configuration newton.DefaultConfig lowers to, with the
// same matrices placed in the same order.
type hostMVM struct {
	ctrl *host.Controller
	ps   []*layout.Placement
}

// newHostMVM builds the replica, timing matrix generation and placement
// under sp when sp is non-nil.
func newHostMVM(seed int64, layers []workloads.Bench, opts host.Options, sp spans) (*hostMVM, error) {
	ctrl, err := host.NewController(paperDRAM(), opts)
	if err != nil {
		return nil, err
	}
	h := &hostMVM{ctrl: ctrl}
	for j, l := range layers {
		var m *layout.Matrix
		gen := func() error { m = layout.RandomMatrix(l.Rows, l.Cols, matSeed(seed, j)); return nil }
		var p *layout.Placement
		place := func() (err error) { p, err = ctrl.Place(m); return err }
		_ = sp.time("layout.gen", gen)
		if err := sp.time("layout.place", place); err != nil {
			return nil, err
		}
		h.ps = append(h.ps, p)
	}
	return h, nil
}

// oracleMVM replays the first oracleOps ops on the host-level event core
// and on the stepping oracle. Each replayed op must match the facade's
// recorded output bits and run statistics, and the two cores must agree
// on outputs, cycles, per-channel cycles and the full dram.Stats.
func (b *bench) oracleMVM(layers []workloads.Bench, recs []mvmRec) error {
	ev, err := newHostMVM(b.seed, layers, paperOptions(), nil)
	if err != nil {
		return err
	}
	oopts := paperOptions()
	oopts.Oracle = true
	or, err := newHostMVM(b.seed, layers, oopts, nil)
	if err != nil {
		return err
	}
	for i := 0; i < oracleOps && i < len(recs); i++ {
		r := recs[i]
		v := bf16.FromFloat32Slice(inputVec(b.seed, i, layers[r.layer].Cols))
		er, err := ev.ctrl.RunMVM(ev.ps[r.layer], v)
		if err != nil {
			return err
		}
		orr, err := or.ctrl.RunMVM(or.ps[r.layer], v)
		if err != nil {
			return err
		}
		if msg := diffResults(er, orr); msg != "" {
			b.fail(1, "op %d: event core and stepping oracle differ: %s", i, msg)
			continue
		}
		if r.out == nil {
			continue
		}
		st := er.Stats
		if !sameBits(r.out, er.Output) || r.st.Cycles != er.Cycles || r.st.Commands != st.TotalCommands() ||
			r.st.Activations != st.Activations || r.st.Refreshes != st.Refreshes ||
			r.st.ExternalBytesRead != st.BytesRead || r.st.InternalBytesRead != st.InternalBytesRead {
			b.fail(1, "op %d: facade run differs from its host-level replay", i)
		}
	}
	return nil
}

// diffResults names the first difference between two host runs, or "".
func diffResults(a, c *host.Result) string {
	switch {
	case !sameBits(a.Output, c.Output):
		return "output bits"
	case a.Cycles != c.Cycles || a.StartCycle != c.StartCycle:
		return fmt.Sprintf("cycles %d vs %d", a.Cycles, c.Cycles)
	case a.Stats != c.Stats:
		return "dram.Stats"
	case fmt.Sprint(a.PerChannelCycles) != fmt.Sprint(c.PerChannelCycles):
		return "per-channel cycles"
	}
	return ""
}

// traceMVM is mvm-cold's traced run: the same closed loop on the
// host-level replica, timing each layer call, then an identical-input
// rerun of GNMT-s1 as the one labelled warm number.
func (b *bench) traceMVM() error {
	layers, err := tableII(mvmLayers...)
	if err != nil {
		return err
	}
	sp := spans{}
	h, err := newHostMVM(b.seed, layers, paperOptions(), sp)
	if err != nil {
		return err
	}
	var st dram.Stats
	var gnmtCold []float64
	traced := b.loop(b.budget(), digestOps, len(layers), func(i int) (int64, int64, error) {
		j := i % len(layers)
		v := bf16.FromFloat32Slice(inputVec(b.seed, i, layers[j].Cols))
		var res *host.Result
		err := sp.time("host.mvm", func() (err error) { res, err = h.ctrl.RunMVM(h.ps[j], v); return err })
		if err != nil {
			return 1, 0, err
		}
		if j == 0 {
			gnmtCold = append(gnmtCold, sp["host.mvm"][len(sp["host.mvm"])-1])
		}
		st.Add(res.Stats)
		return 1, res.Cycles, nil
	}, nil)
	b.layoutLayer(sp)
	b.hostLayer(sp.totalNs("host.mvm"), traced.cycles, float64(max(traced.units, 1)), st)
	b.overhead(traced)

	// Warm: one input rerun until the whole-run replay engages; the
	// first two runs are cold by construction and are not timed.
	v := bf16.FromFloat32Slice(inputVec(b.seed, -1, layers[0].Cols))
	warm := spans{}
	for k := range 7 {
		fn := func() error { _, err := h.ctrl.RunMVM(h.ps[0], v); return err }
		if k < 2 {
			err = fn()
		} else {
			err = warm.time("warm", fn)
		}
		if err != nil {
			return err
		}
	}
	cold := median(gnmtCold) / 1e6
	b.layer["host.warm_mvm_ms"] = warm.medianMs("warm")
	b.layer["host.replay_speedup"] = cold / warm.medianMs("warm")
	b.logf("host.replay_speedup = cold %.4g ms / warm %.4g ms (GNMT-s1, identical-input rerun; warm is never an end-to-end number)",
		cold, warm.medianMs("warm"))
	return nil
}

// layoutLayer records one build's matrix generation and placement host
// time, summed over its matrices.
func (b *bench) layoutLayer(sp spans) {
	b.layer["layout.gen_ms"] = sp.totalNs("layout.gen") / 1e6
	b.layer["layout.place_ms"] = sp.totalNs("layout.place") / 1e6
}

// hostLayer records the event core's combined timing walk and datapath
// cost, from mvmNs of RunMVM time over cycles simulated cycles, and the
// DRAM event counts per op. host.mvm_ms is the mean per op, on the same
// base as host.ns_per_sim_cycle.
func (b *bench) hostLayer(mvmNs float64, cycles int64, ops float64, st dram.Stats) {
	b.layer["host.mvm_ms"] = mvmNs / ops / 1e6
	b.layer["host.sim_cycles_per_op"] = float64(cycles) / ops
	b.layer["host.ns_per_sim_cycle"] = mvmNs / math.Max(float64(cycles), 1)
	b.dramLayer(st, ops)
}

func (b *bench) dramLayer(st dram.Stats, ops float64) {
	b.layer["dram.cmds_per_op"] = float64(st.TotalCommands()) / ops
	b.layer["dram.act_per_op"] = float64(st.Activations) / ops
	b.layer["dram.rdwr_per_op"] = float64(st.Count(dram.KindRD)+st.Count(dram.KindWR)) / ops
	b.layer["dram.ref_per_op"] = float64(st.Refreshes) / ops
}
