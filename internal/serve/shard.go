package serve

import (
	"math"
	"math/rand"
	"strconv"

	"newton/internal/fifo"
	"newton/internal/obs"
)

// ShedPolicy selects what admission control drops when the bounded
// queue is full.
type ShedPolicy int

const (
	// ShedNewest rejects the arriving request (load shedding at the
	// door; the default).
	ShedNewest ShedPolicy = iota
	// ShedOldest drops the longest-waiting request to admit the new one
	// (freshness-first, for workloads where stale answers are worthless).
	ShedOldest
)

// String names the policy.
func (p ShedPolicy) String() string {
	if p == ShedOldest {
		return "shed-oldest"
	}
	return "shed-newest"
}

// Options tunes a shard's queue and batcher.
type Options struct {
	// MaxBatch caps requests per launch. Values below 1 mean 1 (no
	// batching), Newton's natural operating point: its compute cannot
	// exploit batch reuse, so coalescing only adds queueing delay.
	MaxBatch int
	// MaxWait is how long (virtual ns) a batch head may wait for
	// co-batchable arrivals while the device is idle. 0 launches as soon
	// as the device frees up, with whatever is queued — the
	// drain-the-queue batching a throughput-oriented GPU uses.
	MaxWait float64
	// QueueDepth bounds the admitted-but-waiting queue; 0 is unbounded.
	// Arrivals past the bound are shed per Policy.
	QueueDepth int
	// Policy picks the victim when the queue is full.
	Policy ShedPolicy

	// Obs receives the run's serving metrics (per-shard counters,
	// queue-depth peaks, batch-size and latency histograms). Nil keeps
	// observability off at zero cost. Only the run-level Options' Obs is
	// consulted; per-shard Opt overrides inherit it.
	Obs *obs.Registry
	// Tracer receives request-scoped spans (request -> queue/service,
	// batch launches, shed/fail markers), stamped in virtual ns. Each
	// worker records into a private tracer; Run merges them in shard
	// order so the trace is deterministic. Inherited like Obs.
	Tracer *obs.Tracer
}

func (o Options) maxBatch() int {
	if o.MaxBatch < 1 {
		return 1
	}
	return o.MaxBatch
}

func (o Options) maxWait() float64 {
	if o.MaxWait < 0 || math.IsNaN(o.MaxWait) {
		return 0
	}
	return o.MaxWait
}

// shardSim runs one shard's virtual-time discrete-event simulation:
// a bounded FIFO admission queue in front of a dynamic batcher in front
// of a single device (the shard's channel partition, which serves one
// batch at a time — the paper's per-channel exclusivity, §III-D).
//
// The admission queue is a fifo.PerModel of arrival indices: the
// head model's batch is full when its FIFO holds MaxBatch, and a launch
// pops that FIFO's front — the model's first MaxBatch requests in
// admission order, the members a scan of one mixed queue would pick.
// Every event costs O(models + batch), not O(queue).
//
// The simulation is sequential and allocation-light; concurrency lives
// one level up, where every shard runs its own worker goroutine.
type shardSim struct {
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

	arr     []Request
	queue   fifo.PerModel[int] // indices into arr: admitted, waiting
	members []int              // launch scratch: the batch being served
	free    float64
	m       Metrics

	// name labels this shard's span track; tr is the worker-private
	// tracer (nil = tracing off) that Run merges in shard order.
	name string
	tr   *obs.Tracer
}

// run simulates the full arrival stream and returns the shard metrics.
func (s *shardSim) run() Metrics {
	maxBatch := s.opt.maxBatch()
	maxWait := s.opt.maxWait()
	s.m.FirstArrival = math.Inf(1)
	// Each request adds at most one sample to each histogram (to Batch,
	// one per launch).
	for _, h := range []*Histogram{&s.m.Latency, &s.m.QueueWait, &s.m.Service, &s.m.Batch} {
		h.Grow(len(s.arr))
	}

	i := 0 // next un-admitted arrival
	clock := 0.0
	for i < len(s.arr) || s.queue.Len() > 0 {
		if s.queue.Len() == 0 {
			clock = s.arr[i].T
			s.admit(i)
			i++
			continue
		}
		q := s.queue.Head()
		var launchAt float64
		if q.Len() >= maxBatch {
			// Full batch: launch as soon as the device frees up.
			launchAt = math.Max(s.free, clock)
		} else {
			// Hold for co-batchable arrivals until the head's deadline,
			// or until the device frees up, whichever is later.
			launchAt = math.Max(s.free, s.arr[q.At(0)].T+maxWait)
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
		s.launch(q, maxBatch, launchAt)
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
func (s *shardSim) fail(next int) {
	s.health = Failed
	s.m.Shed += int64(s.queue.Len())
	if s.tr != nil {
		s.tr.Instant(s.name, "fail", s.plan.FailAt, 0,
			obs.Arg{Key: "shed_queued", Value: strconv.Itoa(s.queue.Len())})
	}
	s.queue = fifo.PerModel[int]{}
	for ; next < len(s.arr); next++ {
		s.m.Arrived++
		s.m.Shed++
		if t := s.arr[next].T; t < s.m.FirstArrival {
			s.m.FirstArrival = t
		}
	}
}

// admit applies admission control to arrival index idx.
func (s *shardSim) admit(idx int) {
	s.m.Arrived++
	if t := s.arr[idx].T; t < s.m.FirstArrival {
		s.m.FirstArrival = t
	}
	if s.opt.QueueDepth > 0 && s.queue.Len() >= s.opt.QueueDepth {
		s.m.Shed++
		if s.tr != nil {
			s.tr.Instant(s.name, "shed", s.arr[idx].T, 0,
				obs.Arg{Key: "policy", Value: s.opt.Policy.String()})
		}
		if s.opt.Policy == ShedOldest {
			s.queue.PopOldest()
			s.queue.Push(s.arr[idx].Model, idx)
		}
		return
	}
	s.queue.Push(s.arr[idx].Model, idx)
	if n := int64(s.queue.Len()); n > s.m.PeakQueue {
		s.m.PeakQueue = n
	}
}

// launch coalesces up to maxBatch queued requests from the front of
// the model's FIFO (leaving other models queued), runs them as one
// batch on the backend, and records per-request metrics.
func (s *shardSim) launch(q *fifo.ModelFIFO[int], maxBatch int, at float64) {
	model := q.Model
	members := s.members[:0]
	for len(members) < maxBatch && q.Len() > 0 {
		members = append(members, s.queue.Pop(q))
	}
	s.members = members

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
