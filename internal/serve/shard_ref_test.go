package serve

import (
	"math"
	"math/rand"
	"strconv"

	"newton/internal/obs"
)

// refShardSim is the shard event loop as it was before the per-model
// FIFOs: one admission queue of arrival indices, a full scan of it per
// event to count the head model's requests (sameModelQueued), and a
// rebuild of it per launch. It is the reference FuzzServeShard holds
// shardSim to: both must produce identical Metrics (every counter, and
// every histogram's samples in recording order), health and span
// forests for any stream. It is kept verbatim, quadratic cost and all.
type refShardSim struct {
	backend Backend
	opt     Options

	// plan and rng drive the reliability model (reliability.go); both
	// nil for a healthy shard.
	plan *FaultPlan
	rng  *rand.Rand
	// detected counts validation failures so far (the degradation
	// trigger); health is the shard's final state.
	detected int64
	health   Health

	arr   []Request
	queue []int // indices into arr: admitted, waiting
	free  float64
	m     Metrics

	// name labels this shard's span track; tr is the worker-private
	// tracer (nil = tracing off) that Run merges in shard order.
	name string
	tr   *obs.Tracer
}

// run simulates the full arrival stream and returns the shard metrics.
func (s *refShardSim) run() Metrics {
	maxBatch := s.opt.maxBatch()
	maxWait := s.opt.maxWait()
	s.m.FirstArrival = math.Inf(1)

	i := 0 // next un-admitted arrival
	clock := 0.0
	for i < len(s.arr) || len(s.queue) > 0 {
		if len(s.queue) == 0 {
			clock = s.arr[i].T
			s.admit(i)
			i++
			continue
		}
		head := s.queue[0]
		model := s.arr[head].Model
		var launchAt float64
		if s.sameModelQueued(model) >= maxBatch {
			// Full batch: launch as soon as the device frees up.
			launchAt = math.Max(s.free, clock)
		} else {
			// Hold for co-batchable arrivals until the head's deadline,
			// or until the device frees up, whichever is later.
			launchAt = math.Max(s.free, s.arr[head].T+maxWait)
		}
		if i < len(s.arr) && s.arr[i].T < launchAt {
			clock = s.arr[i].T
			s.admit(i)
			i++
			continue
		}
		if s.plan != nil && s.plan.FailAt > 0 && launchAt >= s.plan.FailAt {
			s.fail(i)
			break
		}
		clock = launchAt
		s.launch(model, maxBatch, launchAt)
	}
	if math.IsInf(s.m.FirstArrival, 1) {
		s.m.FirstArrival = 0
	}
	if s.health == Healthy && s.plan != nil && s.plan.DegradeAfter > 0 && s.detected >= s.plan.DegradeAfter {
		s.health = Degraded
	}
	return s.m
}

// fail kills the shard at its FailAt boundary: everything queued and
// every remaining arrival (requests that were not failed over) is shed.
func (s *refShardSim) fail(next int) {
	s.health = Failed
	s.m.Shed += int64(len(s.queue))
	if s.tr != nil {
		s.tr.Instant(s.name, "fail", s.plan.FailAt, 0,
			obs.Arg{Key: "shed_queued", Value: strconv.Itoa(len(s.queue))})
	}
	s.queue = s.queue[:0]
	for ; next < len(s.arr); next++ {
		s.m.Arrived++
		s.m.Shed++
		if t := s.arr[next].T; t < s.m.FirstArrival {
			s.m.FirstArrival = t
		}
	}
}

// admit applies admission control to arrival index idx.
func (s *refShardSim) admit(idx int) {
	s.m.Arrived++
	if t := s.arr[idx].T; t < s.m.FirstArrival {
		s.m.FirstArrival = t
	}
	if s.opt.QueueDepth > 0 && len(s.queue) >= s.opt.QueueDepth {
		s.m.Shed++
		if s.tr != nil {
			s.tr.Instant(s.name, "shed", s.arr[idx].T, 0,
				obs.Arg{Key: "policy", Value: s.opt.Policy.String()})
		}
		if s.opt.Policy == ShedOldest {
			s.queue = append(s.queue[1:], idx)
		}
		return
	}
	s.queue = append(s.queue, idx)
	if n := int64(len(s.queue)); n > s.m.PeakQueue {
		s.m.PeakQueue = n
	}
}

// sameModelQueued counts queued requests for the model.
func (s *refShardSim) sameModelQueued(model int) int {
	n := 0
	for _, idx := range s.queue {
		if s.arr[idx].Model == model {
			n++
		}
	}
	return n
}

// launch coalesces up to maxBatch queued requests of the model (FIFO
// order, leaving other models queued), runs them as one batch on the
// backend, and records per-request metrics.
func (s *refShardSim) launch(model, maxBatch int, at float64) {
	members := make([]int, 0, maxBatch)
	rest := s.queue[:0]
	for _, idx := range s.queue {
		if s.arr[idx].Model == model && len(members) < maxBatch {
			members = append(members, idx)
		} else {
			rest = append(rest, idx)
		}
	}
	s.queue = rest

	service := s.backend.ServiceCycles(model, len(members))
	if s.plan != nil && s.plan.DegradeAfter > 0 && s.detected >= s.plan.DegradeAfter {
		service *= s.plan.penalty()
	}

	// READRES validation: each attempt may be detected-bad and re-run,
	// up to MaxRetries re-executions; a launch still failing after that
	// sheds its whole batch. The device is busy for every attempt either
	// way — failed work still occupies the channel partition.
	attempts, ok := 1, true
	if s.plan != nil && s.plan.DetectedPerLaunch > 0 {
		for s.rng.Float64() < s.plan.DetectedPerLaunch {
			s.detected++
			if attempts > s.plan.MaxRetries {
				ok = false
				break
			}
			attempts++
			s.m.Retried++
		}
	}

	done := at + float64(attempts)*service
	s.free = done
	s.m.Launches++
	s.m.Batch.Record(float64(len(members)))
	if done > s.m.LastCompletion {
		s.m.LastCompletion = done
	}

	if s.tr != nil {
		// One batch span, with each member's full request tree under it
		// recorded retrospectively (member arrival times are known here,
		// so the spans land in launch order — virtual-time order — and
		// the trace stays deterministic).
		batch := s.tr.Span(s.name, "batch", at, done, 0,
			obs.Arg{Key: "model", Value: strconv.Itoa(model)},
			obs.Arg{Key: "batch", Value: strconv.Itoa(len(members))},
			obs.Arg{Key: "attempts", Value: strconv.Itoa(attempts)})
		for _, idx := range members {
			t := s.arr[idx].T
			req := s.tr.Span(s.name, "request", t, done, batch)
			s.tr.Span(s.name, "queue", t, at, req)
			svc := s.tr.Span(s.name, "service", at, done, req)
			if attempts > 1 {
				s.tr.Annotate(svc, "retries", strconv.Itoa(attempts-1))
			}
			if !ok {
				s.tr.Annotate(req, "outcome", "shed")
			}
		}
	}

	if !ok {
		s.m.Shed += int64(len(members))
		return
	}
	s.m.Served += int64(len(members))
	for _, idx := range members {
		t := s.arr[idx].T
		s.m.QueueWait.Record(at - t)
		s.m.Service.Record(done - at)
		s.m.Latency.Record(done - t)
	}
}
