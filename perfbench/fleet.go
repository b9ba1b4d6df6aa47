package main

import (
	"strings"

	"newton"
)

// fleetKind is one of fleet-serve's four chunk kinds: an engine at a
// fixed offered load below or above its capacity.
type fleetKind struct {
	name    string // per-layer metric prefix and suffix, e.g. serve.ns_per_req_under
	cluster bool
	qps     float64
}

// fleetKinds are the chunk kinds of one round, in order. The server
// (DLRM-s1 on 8 channels, GNMT-s1 on 16) saturates near 2.5e5 qps and
// the four-device cluster near 6e5 qps; with unbounded queues an
// overloaded chunk's backlog grows for its whole length.
var fleetKinds = []fleetKind{
	{"serve.ns_per_req_under", false, 2e5},
	{"serve.ns_per_req_over", false, 4e5},
	{"cluster.ns_per_req_under", true, 2e5},
	{"cluster.ns_per_req_over", true, 4e6},
}

// fleetChunk is the number of requests in one chunk.
const fleetChunk = 10000

// fleetSeed is the weight and calibration seed of a run's engines.
func fleetSeed(seed int64) int64 { return seed*101 + 90 }

func newFleet(seed int64, sp spans) (*newton.Server, *newton.Cluster, error) {
	cfg := newton.DefaultConfig()
	var srv *newton.Server
	var cl *newton.Cluster
	err := sp.time("serve.calibrate", func() (err error) {
		srv, err = cfg.NewServer(newton.ServeConfig{
			Models: []newton.ServedModel{
				{Name: "DLRM-s1", Rows: 512, Cols: 256, Channels: 8},
				{Name: "GNMT-s1", Rows: 4096, Cols: 1024, Channels: 16},
			},
			Seed: fleetSeed(seed),
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = sp.time("cluster.calibrate", func() (err error) {
		cl, err = cfg.NewCluster(newton.ClusterConfig{
			Models: []newton.ClusterModel{
				{Name: "DLRM-s1", Rows: 512, Cols: 256, Replicas: 2},
				{Name: "GNMT-s1", Rows: 4096, Cols: 1024, SplitAcross: 2},
			},
			Options: newton.ClusterOptions{Policy: newton.RouteLeastLoaded},
			Seed:    fleetSeed(seed),
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, cl, nil
}

// fleetTotals is the part of a chunk's outcome the checks and digest
// read, common to both engines.
type fleetTotals struct {
	arrived, served, shed, launches, peakQueue int64
	first, last, p50, p99, max                 float64
	slices                                     int64 // units the launches served: requests, or row-split slices
}

func serveTotals(m *newton.ServeMetrics) fleetTotals {
	return fleetTotals{m.Arrived, m.Served, m.Shed, m.Launches, m.PeakQueue,
		m.FirstArrival, m.LastCompletion, m.Latency.P50(), m.Latency.P99(), m.Latency.Max(), m.Served}
}

// clusterTotals reads the fleet totals, except that launches are the
// devices' slice-level launches, since the fleet Total counts a
// row-split request once but launches it once per slice.
func clusterTotals(r *newton.ClusterResult) fleetTotals {
	m := &r.Total
	t := fleetTotals{m.Arrived, m.Served, m.Shed, 0, m.PeakQueue,
		m.FirstArrival, m.LastCompletion, m.Latency.P50(), m.Latency.P99(), m.Latency.Max(), 0}
	for _, d := range r.Devices {
		t.launches += d.Metrics.Launches
		t.slices += d.Metrics.Served
	}
	return t
}

// fleetRun replays rounds in a closed loop. A round is one chunk of each
// kind in fleetKinds order, each chunk a fresh seeded Poisson stream
// generated between rounds. One op sample is a round's host time per
// request: every round has the same mix of loads, so the samples have
// one mode and their median and tail do not sit between the kinds. It
// returns the phase, the per-kind totals and host time per chunk kind.
func (b *bench) fleetRun(srv *newton.Server, cl *newton.Cluster) (*phase, map[string][]fleetTotals, spans) {
	totals := map[string][]fleetTotals{}
	sp := spans{}
	weights := []float64{1, 1}
	next := func(round int) [][]newton.ServeRequest {
		var chunks [][]newton.ServeRequest
		for k, kind := range fleetKinds {
			seed := b.seed*1_000_003 + int64(round*len(fleetKinds)+k)
			chunks = append(chunks, newton.PoissonRequests(fleetChunk, kind.qps, weights, seed))
		}
		return chunks
	}
	chunks := next(0)
	p := b.loop(b.budget(), 2, 1, func(i int) (int64, int64, error) {
		var span int64
		for k, kind := range fleetKinds {
			var t fleetTotals
			err := sp.time(kind.name, func() error {
				if kind.cluster {
					r, err := cl.Replay(chunks[k])
					if err == nil {
						t = clusterTotals(r)
					}
					return err
				}
				r, err := srv.Replay(chunks[k])
				if err == nil {
					t = serveTotals(&r.Total)
				}
				return err
			})
			if err != nil {
				return int64(len(fleetKinds) * fleetChunk), 0, err
			}
			totals[kind.name] = append(totals[kind.name], t)
			if t.arrived != fleetChunk || t.arrived != t.served+t.shed {
				b.fail(fleetChunk, "round %d (%s): arrived %d != served %d + shed %d for %d requests",
					i, kind.name, t.arrived, t.served, t.shed, fleetChunk)
			}
			// Simulated time is the chunk's virtual span at the 1 GHz
			// command clock, in cycles.
			span += int64(t.last - t.first)
		}
		return int64(len(fleetKinds) * fleetChunk), span, nil
	}, func(i int) { chunks = next(i + 1) })
	return p, totals, sp
}

func runFleet(b *bench) error {
	var srv *newton.Server
	var cl *newton.Cluster
	cal := spans{}
	err := b.setup(func() (err error) { srv, cl, err = newFleet(b.seed, cal); return err })
	if err != nil {
		return err
	}
	var totals map[string][]fleetTotals
	b.main, totals, _ = b.fleetRun(srv, cl)
	for _, k := range fleetKinds {
		t := totals[k.name][0]
		b.digest.str(k.name)
		b.digest.ints(t.arrived, t.served, t.shed, t.launches, t.peakQueue, t.slices)
		b.digest.float64s(t.first, t.last, t.p50, t.p99, t.max)
	}
	return nil
}

// traceFleet is fleet-serve's traced run: fresh engines with their
// calibration timed, then the same rounds with each chunk kind timed.
func (b *bench) traceFleet() error {
	cal := spans{}
	srv, cl, err := newFleet(b.seed, cal)
	if err != nil {
		return err
	}
	traced, ttotals, sp := b.fleetRun(srv, cl)
	for _, k := range fleetKinds {
		b.layer[k.name] = median(sp[k.name]) / fleetChunk
	}
	b.layer["serve.calibrate_ms"] = cal.medianMs("serve.calibrate")
	b.layer["cluster.calibrate_ms"] = cal.medianMs("cluster.calibrate")
	for _, eng := range []string{"serve", "cluster"} {
		var arrived, shed, slices, launches int64
		for _, k := range fleetKinds {
			if !strings.HasPrefix(k.name, eng+".") {
				continue
			}
			for _, t := range ttotals[k.name] {
				arrived, shed = arrived+t.arrived, shed+t.shed
				slices, launches = slices+t.slices, launches+t.launches
			}
		}
		var p99 []float64
		for _, t := range ttotals[eng+".ns_per_req_under"] {
			p99 = append(p99, t.p99)
		}
		b.layer[eng+".shed_ratio"] = float64(shed) / float64(max(arrived, 1))
		b.layer[eng+".mean_batch"] = float64(slices) / float64(max(launches, 1))
		b.layer[eng+".virt_p99_us"] = median(p99) / 1e3
		b.logf("%s.virt_p99_us is the median over %d under-load chunks of each chunk's p99 latency", eng, len(p99))
	}
	b.overhead(traced)
	return nil
}
