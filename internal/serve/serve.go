// Package serve is the inference-serving layer over the Newton
// simulator: the system face of the paper's motivation (§I,
// latency-critical ML inference) and of its Fig. 11/12 batching
// crossovers.
//
// It models an open-loop serving fleet in deterministic virtual time:
//
//   - a stream of timestamped requests (seeded Poisson or a trace file),
//   - channel-level sharding: each shard is a disjoint channel
//     partition of the device (Config.Split in the root package)
//     serving its own model set, with its own worker goroutine,
//   - per-shard admission control (bounded queue, reject/shed policy)
//     and a dynamic batcher (same-matrix coalescing up to a max-batch /
//     max-wait deadline),
//   - backends whose batch-k service times are measured on the live
//     cycle-level simulator (Newton, Ideal Non-PIM) or evaluated from
//     the calibrated analytic model (GPU),
//   - tail-latency metrics: exact p50/p95/p99 over queue-wait, service
//     and sojourn histograms, plus throughput and shed counters.
//
// Shards share nothing (channels share nothing in the paper's design,
// §III-D), so worker goroutines run genuinely in parallel while every
// reported number stays bit-identical run to run: each worker simulates
// its own sub-stream sequentially, and results merge in shard order.
package serve

import (
	"fmt"
	"math/rand"
	"sort"

	"newton/internal/obs"
)

// Shard is one independent serving partition: a backend (a channel
// partition of a device, or a whole GPU) plus the set of model indices
// it serves.
type Shard struct {
	// Name labels the shard in reports.
	Name string
	// Backend is the shard's device model.
	Backend Backend
	// Models lists the global model indices routed to this shard. A
	// model may be served by exactly one shard.
	Models []int
	// Opt overrides the run-level Options for this shard (nil = use the
	// run's), letting a latency shard run unbatched next to a
	// throughput shard that batches aggressively.
	Opt *Options
	// Fault injects result-validation failures, degradation, and
	// whole-shard death into this shard (nil = perfectly reliable).
	Fault *FaultPlan
	// FailoverTo names the shard that takes over this shard's traffic
	// arriving at or after Fault.FailAt. Requests are rerouted when the
	// stream is partitioned, keeping every worker share-nothing; the
	// target must be able to serve this shard's models (a replica).
	FailoverTo string
}

// ShardResult is one shard's outcome.
type ShardResult struct {
	Name    string
	Backend string
	// Health is the shard's state after the run: healthy, degraded
	// (validation failures crossed the plan threshold), or failed.
	Health  Health
	Metrics Metrics
}

// Result is a serving run's outcome: per-shard metrics plus the
// shard-order merge.
type Result struct {
	Shards []ShardResult
	Total  Metrics
}

// Run replays the request stream against the shard fleet and returns
// the metrics. Each shard's sub-stream is simulated by its own worker
// goroutine (shards share nothing); a collector gathers results and
// merges them in shard order, so the output is deterministic for a
// deterministic input stream regardless of goroutine scheduling.
func Run(shards []Shard, reqs []Request, opt Options) (*Result, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("serve: no shards")
	}
	route := make(map[int]int) // model -> shard index
	for si, sh := range shards {
		if sh.Backend == nil {
			return nil, fmt.Errorf("serve: shard %d (%s) has no backend", si, sh.Name)
		}
		for _, m := range sh.Models {
			if prev, dup := route[m]; dup {
				return nil, fmt.Errorf("serve: model %d served by both shard %d and %d", m, prev, si)
			}
			route[m] = si
		}
	}

	failover, err := resolveFailover(shards)
	if err != nil {
		return nil, err
	}

	// Partition the stream, preserving arrival order per shard. Failover
	// redistribution happens here: a request for a dead shard (arriving
	// at or after its FailAt) goes to the failover target instead, so
	// every worker still owns its sub-stream outright.
	ordered := append([]Request(nil), reqs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].T < ordered[j].T })
	streams := make([][]Request, len(shards))
	rerouted := make([]int64, len(shards)) // failover reroutes, by origin shard
	for _, r := range ordered {
		if !validArrival(r.T) {
			return nil, fmt.Errorf("serve: bad arrival time %g", r.T)
		}
		si, ok := route[r.Model]
		if !ok {
			return nil, fmt.Errorf("serve: request for model %d, which no shard serves", r.Model)
		}
		// Hop count bounds failover chains (A -> B -> C); a cycle of
		// all-dead shards leaves the request on the last one, which
		// sheds it.
		origin := si
		for hops := 0; hops < len(shards) && failover[si] >= 0 && r.T >= shards[si].Fault.FailAt; hops++ {
			si = failover[si]
		}
		if si != origin {
			rerouted[origin]++
		}
		streams[si] = append(streams[si], r)
	}

	// One worker goroutine per shard; a channel funnels results to the
	// collector below. Workers share nothing but the channel. When the
	// run-level Options carry a Tracer, each worker records spans into a
	// private tracer; the collector merges them in shard order below so
	// the combined trace is as deterministic as the metrics.
	type done struct {
		idx    int
		m      Metrics
		health Health
		tr     *obs.Tracer
	}
	ch := make(chan done)
	for si := range shards {
		o := opt
		if shards[si].Opt != nil {
			// Per-shard overrides tune the queue and batcher only;
			// observability stays a run-level decision.
			o = *shards[si].Opt
			o.Obs, o.Tracer = opt.Obs, opt.Tracer
		}
		go func(idx int, sh Shard, stream []Request, o Options) {
			sim := shardSim{backend: sh.Backend, opt: o, arr: stream, plan: sh.Fault,
				name: shardTrack(sh, idx)}
			if o.Tracer != nil {
				sim.tr = &obs.Tracer{}
			}
			if sh.Fault != nil {
				// Each shard draws from its own stream, seeded by plan
				// and shard position, so fleets replay identically.
				sim.rng = rand.New(rand.NewSource(sh.Fault.Seed + int64(idx)))
			}
			ch <- done{idx: idx, m: sim.run(), health: sim.health, tr: sim.tr}
		}(si, shards[si], streams[si], o)
	}

	res := &Result{Shards: make([]ShardResult, len(shards))}
	tracers := make([]*obs.Tracer, len(shards))
	for range shards {
		d := <-ch
		res.Shards[d.idx] = ShardResult{
			Name:    shards[d.idx].Name,
			Backend: shards[d.idx].Backend.Name(),
			Health:  d.health,
			Metrics: d.m,
		}
		tracers[d.idx] = d.tr
	}
	for i := range res.Shards {
		res.Total.Merge(&res.Shards[i].Metrics)
	}
	if opt.Tracer != nil {
		for _, tr := range tracers {
			opt.Tracer.Merge(tr)
		}
	}
	publishRun(opt.Obs, shards, res, rerouted)
	return res, nil
}

// shardTrack names a shard's span track and metric label.
func shardTrack(sh Shard, idx int) string {
	if sh.Name != "" {
		return sh.Name
	}
	return fmt.Sprintf("shard-%d", idx)
}
