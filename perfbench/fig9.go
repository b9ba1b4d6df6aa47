package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"newton/internal/experiments"
	"newton/internal/gpu"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/par"
	"newton/internal/workloads"
)

// fig9Config is the configuration of fig9-sweep's op i: the paper's,
// on the op's own seed, so every sweep generates fresh weights and
// inputs for its 56 design points.
func fig9Config(seed int64, i int, layers []workloads.Bench) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed = seed*1_000_003 + int64(i)
	cfg.Benchmarks = layers
	return cfg
}

// fig9Sweep is one completed experiments.Fig9 call.
type fig9Sweep struct {
	rows   []experiments.Fig9Row
	means  []float64
	cycles int64 // summed over the sweep's design points
}

// runSweep runs cfg.Fig9, timed under sp, and recovers the sweep's
// simulated cycles from its speedups: each is the GPU model's layer time
// (TitanV sized to the configuration's channels) over the point's
// cycles, a whole number far below 2^53, so rounding gives the cycles
// back exactly. The recovery is checked by recomputing every speedup.
func runSweep(cfg experiments.Config, sp spans) (*fig9Sweep, error) {
	s := &fig9Sweep{}
	err := sp.time("experiments.fig9", func() (err error) { s.rows, s.means, err = cfg.Fig9(); return err })
	if err != nil {
		return nil, err
	}
	g := gpu.TitanV()
	g.MemChannels = cfg.Channels
	for j, r := range s.rows {
		l := cfg.Benchmarks[j]
		gt := g.LayerTime(l.Rows, l.Cols)
		for _, x := range r.Speedups {
			c := int64(math.Round(gt / x))
			if gt/float64(c) != x {
				return nil, fmt.Errorf("%s: cannot recover cycles from speedup %g", l.Name, x)
			}
			s.cycles += c
		}
	}
	return s, nil
}

// table is the sweep's rendering, line by line.
func (s *fig9Sweep) table() []string {
	return strings.Split(strings.TrimRight(experiments.RenderFig9(s.rows, s.means), "\n"), "\n")
}

func runFig9(b *bench) error {
	want, err := fig9Expected()
	if err != nil {
		return err
	}
	// Each sweep builds all of its state itself, so set-up is one design
	// point's build, the controller, matrix and placement that every
	// point of a sweep repeats.
	first, step := workloads.TableII()[0], experiments.Fig9Steps()[0]
	err = b.setup(func() error {
		ctrl, err := host.NewController(paperDRAM(), step.Opts)
		if err != nil {
			return err
		}
		_, err = ctrl.Place(layout.RandomMatrix(first.Rows, first.Cols, b.seed))
		return err
	})
	if err != nil {
		return err
	}
	op, after := b.fig9Op(workloads.TableII(), want, nil)
	b.main = b.loop(b.budget(), 2, 1, op, after)
	return nil
}

// fig9Op is the sweep's op, one whole experiments.Fig9 sweep on a fresh
// seed, counted as its design points, and its check: the sweep's table
// must equal the Fig. 9 block of docs/RESULTS.txt cell for cell. Cycles
// do not depend on weight or input values, so every seed must reproduce
// the committed table, and a run of at least two sweeps confirms it on
// two seeds. Each differing cell fails one point. The first sweep feeds
// the digest. With want nil the table is not checked.
func (b *bench) fig9Op(layers []workloads.Bench, want []string, sp spans) (func(int) (int64, int64, error), func(int)) {
	points := int64(len(layers) * len(experiments.Fig9Steps()))
	var cur *fig9Sweep
	op := func(i int) (int64, int64, error) {
		var err error
		cur, err = runSweep(fig9Config(b.seed, i, layers), sp)
		if err != nil {
			return points, 0, err
		}
		return points, cur.cycles, nil
	}
	after := func(i int) {
		if cur == nil {
			return
		}
		if want != nil {
			if bad := diffTable(cur.table(), want); bad > 0 {
				b.fail(min(int64(bad), points), "sweep %d: %d Fig. 9 cells differ from docs/RESULTS.txt:\n%s",
					i, bad, strings.Join(cur.table(), "\n"))
			}
		}
		if i == 0 && sp == nil {
			for _, r := range cur.rows {
				b.digest.str(r.Name)
				b.digest.float64s(r.Speedups...)
			}
			b.digest.float64s(cur.means...)
			b.digest.ints(cur.cycles)
		}
		cur = nil
	}
	return op, after
}

// fig9Expected reads the Fig. 9 block of docs/RESULTS.txt.
func fig9Expected() ([]string, error) {
	data, err := readRepoFile("docs/RESULTS.txt")
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "Fig. 9:") {
			end := i
			for end < len(lines) && strings.TrimSpace(lines[end]) != "" {
				end++
			}
			return lines[i:end], nil
		}
	}
	return nil, errors.New("docs/RESULTS.txt has no Fig. 9 block")
}

// diffTable counts the cells (whitespace-separated fields) that differ
// between two renderings of a table; a missing or extra line counts all
// of its cells.
func diffTable(got, want []string) int {
	bad := 0
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w []string
		if i < len(got) {
			g = strings.Fields(got[i])
		}
		if i < len(want) {
			w = strings.Fields(want[i])
		}
		for k := 0; k < max(len(g), len(w)); k++ {
			if k >= len(g) || k >= len(w) || g[k] != w[k] {
				bad++
			}
		}
	}
	return bad
}

// traceFig9 is fig9-sweep's traced run: the same whole sweeps, each
// timed as one call into experiments.
func (b *bench) traceFig9() error {
	want, err := fig9Expected()
	if err != nil {
		return err
	}
	return b.traceExperiments(workloads.TableII(), want, b.budget(), 2)
}

// traceExperiments runs experiments.Fig9 sweeps over the given layers in
// a closed loop, for budget and at least minSweeps, and records the sweep
// rate in design points per second and the sweep pool's worker count.
func (b *bench) traceExperiments(layers []workloads.Bench, want []string, budget time.Duration, minSweeps int) error {
	sp := spans{}
	op, after := b.fig9Op(layers, want, sp)
	traced := b.loop(budget, minSweeps, 1, op, after)
	b.layer["experiments.points_per_s"] = float64(traced.units) / (sp.totalNs("experiments.fig9") / 1e9)
	b.layer["par.effective_workers"] = float64(par.Effective(0, len(layers)))
	b.overhead(traced)
	return nil
}

// probeExperiments is the experiments layer's probe: one Fig. 9 sweep of
// DLRM-s1 alone, whose table docs/RESULTS.txt does not hold.
func (b *bench) probeExperiments() error {
	layers, err := tableII("DLRM-s1")
	if err != nil {
		return err
	}
	return b.traceExperiments(layers, nil, 0, 1)
}
