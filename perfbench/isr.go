package main

import (
	"fmt"
	"math"

	"newton"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/isr"
	"newton/internal/nn"
	"newton/internal/workloads"
)

// model-isr's bounds on a device inference. DLRM's sigmoid layers read
// the bf16 activation LUT and post-activation BatchNorm amplifies the
// difference, so neither the device nor the per-layer host loop is close
// to the float32 reference: over 1200 inputs on 24 seeds the device sat
// 2.11-2.46 off ReferenceModelOutput at its worst element, and 0.06-0.38
// off the host loop on mean over its 256 outputs, while every output's
// mean magnitude was at least 0.93.
const (
	// hostLoopMaxTol is newton-bench -checkperf's envelope on the device
	// against the per-layer host loop, at any element.
	hostLoopMaxTol = 4
	// hostLoopMeanTol bounds the mean |device - host loop|; it is what
	// rejects a zeroed or otherwise wrong output of plausible size.
	hostLoopMeanTol = 0.6
	// refMaxTol bounds |device - ReferenceModelOutput| at any element,
	// above the worst observed 2.46. Reference outputs stay within about
	// 1.3, so this check catches only gross errors.
	refMaxTol = 3
)

// modelSeed is model-isr's weight seed.
func modelSeed(seed int64) int64 { return seed*101 + 50 }

func runModelISR(b *bench) error {
	spec := workloads.DLRM()
	var sys *newton.System
	var pm *newton.PlacedModel
	err := b.setup(func() error {
		s, err := newton.NewSystem(newton.DefaultConfig())
		if err != nil {
			return err
		}
		if pm, err = s.LoadModel(spec, modelSeed(b.seed)); err != nil {
			return err
		}
		sys = s
		return nil
	})
	if err != nil {
		return err
	}
	width := spec.InputWidth()
	var cur *newton.DeviceModelResult
	var recs []*newton.DeviceModelResult // the first oracleOps ops, for the oracle replay
	// Every output is kept, 1 KiB an op, and checked after the timed
	// phase: the host loop allocates about as much as an inference, and
	// its garbage collected during the next ops would slow them.
	var outs [][]float32
	b.main = b.loop(b.budget(), digestOps, 1, func(i int) (int64, int64, error) {
		var err error
		cur, err = sys.RunModelOnDevice(pm, inputVec(b.seed, i, width))
		if err != nil {
			return 1, 0, err
		}
		return 1, cur.Cycles, nil
	}, func(i int) {
		if i < oracleOps {
			recs = append(recs, cur)
		}
		var out []float32
		if cur != nil {
			out = cur.Output
			b.corruptOutput(i, out)
			if i < digestOps {
				b.digest.floats(out)
				b.digest.ints(cur.Cycles, cur.Refreshes, int64(cur.Instrs))
				b.digest.ints(cur.LayerCycles...)
			}
		}
		outs = append(outs, out)
		cur = nil
	})
	// The per-layer host loop runs on a twin system: it is the checker,
	// not part of the workload.
	twin, err := newton.NewSystem(newton.DefaultConfig())
	if err != nil {
		return err
	}
	twinPM, err := twin.LoadModel(spec, modelSeed(b.seed))
	if err != nil {
		return err
	}
	for i, out := range outs {
		if out != nil {
			b.checkInference(i, pm, twin, twinPM, inputVec(b.seed, i, width), out)
		}
	}
	return b.oracleISR(spec, recs)
}

// checkInference fails op i when its device output breaks one of the
// model-isr bounds against the per-layer host loop on the twin or
// against ReferenceModelOutput.
func (b *bench) checkInference(i int, pm *newton.PlacedModel, twin *newton.System, twinPM *newton.PlacedModel, in, out []float32) {
	loop, err := twin.RunModel(twinPM, in)
	if err != nil {
		b.fail(1, "op %d: per-layer host loop: %v", i, err)
		return
	}
	ref, err := pm.ReferenceModelOutput(in)
	if err != nil {
		b.fail(1, "op %d: ReferenceModelOutput: %v", i, err)
		return
	}
	if len(out) != len(loop.Output) || len(out) != len(ref) {
		b.fail(1, "op %d: output width %d, host loop %d, reference %d", i, len(out), len(loop.Output), len(ref))
		return
	}
	var sum, loopMax, refMax float64
	for k := range out {
		d := math.Abs(float64(out[k] - loop.Output[k]))
		sum += d
		loopMax = math.Max(loopMax, d)
		refMax = math.Max(refMax, math.Abs(float64(out[k]-ref[k])))
	}
	// Written so that a NaN anywhere fails.
	if mean := sum / float64(len(out)); !(loopMax <= hostLoopMaxTol && mean <= hostLoopMeanTol && refMax <= refMaxTol) {
		b.fail(1, "op %d: device off the host loop by max %.3g (bound %d) and mean %.3g (bound %g), off ReferenceModelOutput by max %.3g (bound %d)",
			i, loopMax, hostLoopMaxTol, mean, hostLoopMeanTol, refMax, refMaxTol)
	}
}

// hostModel is model-isr's system rebuilt from the host and nn layers.
type hostModel struct {
	ctrl *host.Controller
	pm   *nn.PlacedModel
}

func newHostModel(seed int64, spec nn.Model, opts host.Options) (*hostModel, error) {
	ctrl, err := host.NewController(paperDRAM(), opts)
	if err != nil {
		return nil, err
	}
	pm, err := nn.PlaceModel(ctrl, spec, modelSeed(seed))
	if err != nil {
		return nil, err
	}
	return &hostModel{ctrl: ctrl, pm: pm}, nil
}

// oracleISR replays the first oracleOps inferences on the host-level
// event core and stepping oracle; both must match each other (including
// the controller's dram.Stats) and the facade's recorded results.
func (b *bench) oracleISR(spec nn.Model, recs []*newton.DeviceModelResult) error {
	ev, err := newHostModel(b.seed, spec, paperOptions())
	if err != nil {
		return err
	}
	oopts := paperOptions()
	oopts.Oracle = true
	or, err := newHostModel(b.seed, spec, oopts)
	if err != nil {
		return err
	}
	for i := 0; i < oracleOps && i < len(recs); i++ {
		in := inputVec(b.seed, i, spec.InputWidth())
		er, err := nn.RunOnDevice(ev.ctrl, ev.pm, in)
		if err != nil {
			return err
		}
		orr, err := nn.RunOnDevice(or.ctrl, or.pm, in)
		if err != nil {
			return err
		}
		if deviceKey(er.Output, er.Cycles, er.Refreshes, er.Instrs, er.LayerCycles) !=
			deviceKey(orr.Output, orr.Cycles, orr.Refreshes, orr.Instrs, orr.LayerCycles) ||
			ev.ctrl.Stats() != or.ctrl.Stats() {
			b.fail(1, "op %d: event core and stepping oracle differ", i)
			continue
		}
		if r := recs[i]; r != nil && deviceKey(r.Output, r.Cycles, r.Refreshes, r.Instrs, r.LayerCycles) !=
			deviceKey(er.Output, er.Cycles, er.Refreshes, er.Instrs, er.LayerCycles) {
			b.fail(1, "op %d: facade inference differs from its host-level replay", i)
		}
	}
	return nil
}

// deviceKey renders every simulated field of one inference, output bits
// included, for exact comparison.
func deviceKey(out []float32, cycles, refreshes int64, instrs int, layers []int64) string {
	bits := make([]uint32, len(out))
	for i, x := range out {
		bits[i] = math.Float32bits(x)
	}
	return fmt.Sprint(bits, cycles, refreshes, instrs, layers)
}

// traceISR is model-isr's traced run: placement, compilation and ISR
// execution timed separately on the host-level replica.
func (b *bench) traceISR() error {
	spec := workloads.DLRM()
	sp := spans{}
	var h *hostModel
	err := sp.time("nn.load", func() (err error) { h, err = newHostModel(b.seed, spec, paperOptions()); return err })
	if err != nil {
		return err
	}
	var st dram.Stats
	var instrs int64
	traced := b.loop(b.budget(), digestOps, 1, func(i int) (int64, int64, error) {
		// Like the facade, every inference builds its executor and
		// frontend afresh.
		var prog *isr.Program
		err := sp.time("nn.compile", func() error {
			ex, err := nn.NewExecutor(h.ctrl, h.pm)
			if err != nil {
				return err
			}
			prog, err = ex.Compile(inputVec(b.seed, i, spec.InputWidth()))
			return err
		})
		if err != nil {
			return 1, 0, err
		}
		before := h.ctrl.Stats()
		var rep *isr.Report
		err = sp.time("isr.run", func() error {
			fe, err := isr.NewFrontend(h.ctrl)
			if err != nil {
				return err
			}
			rep, err = fe.Run(prog)
			return err
		})
		if err != nil {
			return 1, 0, err
		}
		st.Add(h.ctrl.Stats().Diff(before))
		instrs += int64(rep.Instrs)
		return 1, rep.EndCycle - rep.StartCycle, nil
	}, nil)
	ops := float64(max(traced.units, 1))
	b.layer["nn.load_ms"] = sp.medianMs("nn.load")
	b.layer["nn.compile_ms"] = sp.medianMs("nn.compile")
	b.layer["isr.run_ms"] = sp.medianMs("isr.run")
	b.layer["isr.instrs_per_op"] = float64(instrs) / ops
	b.layer["isr.device_cycles_per_op"] = float64(traced.cycles) / ops
	b.layer["isr.ns_per_device_cycle"] = sp.totalNs("isr.run") / math.Max(float64(traced.cycles), 1)
	b.dramLayer(st, ops)
	b.overhead(traced)
	return nil
}
