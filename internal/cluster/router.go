package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"newton/internal/fifo"
	"newton/internal/obs"
)

// routerTrack names the router's span track; every request's root span
// lives here, parenting the per-device queue/service spans.
const routerTrack = "router"

// pending is one queued unit of work on a device: a whole replicated
// request, or one slice of a row-split request.
type pending struct {
	// t is the request's original arrival time (latency is measured
	// from it, even after a failover drain).
	t float64
	// rt is the unit's ready time on its current device: t on admission,
	// the dead device's FailAt after a drain — a sibling cannot launch
	// work before it received it.
	rt    float64
	model int
	// req indexes the ordered request stream; slice is the row-slice
	// index for split requests, -1 for replicated ones.
	req   int
	slice int
}

// join tracks a row-split request's outstanding slices: the request
// completes ReduceNs after its slowest slice, or counts shed once if
// any slice was dropped. It is live while remaining > 0.
type join struct {
	t         float64
	remaining int
	done      float64
	shed      bool
}

// devRun is one device's per-run state. Its queue holds units in
// append order (admission, shed-oldest replacement, failover drain) as
// a fifo.PerModel: the head model's MaxBatch-th unit is At(MaxBatch-1)
// of its FIFO, and a launch pops that FIFO's front — the units a scan
// of one mixed queue in append order would pick.
type devRun struct {
	queue    fifo.PerModel[pending]
	free     float64
	cold     bool
	dead     bool
	activeAt float64 // earliest allowed launch after an activation
	m        Metrics
}

// run is one Replay's full state. The router is a single goroutine —
// routing decisions (least-loaded, autoscaling) read cross-device state,
// so the determinism contract is sequencing, not sharding.
type run struct {
	f      *Fleet
	opt    Options
	devs   []devRun
	joins  []join       // per request index (split placements only)
	spans  []obs.SpanID // per-request root span (tracer runs only)
	total  Metrics
	rs     RouterStats
	window []float64
	queued int64
	tr     *obs.Tracer

	targets []int     // route scratch: a split request's slice devices
	members []pending // launch scratch: the batch being served
}

// Replay routes the request stream through the fleet and returns the
// per-device and fleet-level metrics. The stream is sorted stably by
// arrival time first, so hand-built traces need not be pre-sorted;
// everything downstream is deterministic in virtual time.
func (f *Fleet) Replay(reqs []Request) (*Result, error) {
	ordered := append([]Request(nil), reqs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].T < ordered[j].T })
	for _, q := range ordered {
		if !(q.T >= 0) || math.IsInf(q.T, 1) {
			return nil, fmt.Errorf("cluster: bad arrival time %g", q.T)
		}
		if _, ok := f.place[q.Model]; !ok {
			return nil, fmt.Errorf("cluster: request for model %d, which no placement covers", q.Model)
		}
	}

	r := &run{
		f:    f,
		opt:  f.opt,
		devs: make([]devRun, len(f.devices)),
		tr:   f.opt.Tracer,
	}
	for _, pl := range f.place {
		if len(pl.Slices) > 0 {
			r.joins = make([]join, len(ordered))
			break
		}
	}
	r.total.FirstArrival = math.Inf(1)
	r.total.Latency.Grow(len(ordered))
	for i := range r.devs {
		r.devs[i].cold = f.devices[i].Standby
		r.devs[i].m.FirstArrival = math.Inf(1)
	}
	if r.tr != nil {
		r.spans = make([]obs.SpanID, len(ordered))
	}

	// The event loop: each iteration processes the earliest of the next
	// device failure, the earliest device launch, and the next arrival.
	// Ties resolve failure -> launch -> arrival: a launch at a device's
	// FailAt never happens, and an arrival at FailAt is routed around
	// the dead device — the same boundary semantics as the serve layer.
	i := 0
	for {
		lt, ld := r.nextLaunch()
		ft, fd := r.nextFailure()
		at := math.Inf(1)
		if i < len(ordered) {
			at = ordered[i].T
		}
		if math.IsInf(lt, 1) && math.IsInf(at, 1) {
			// No work left; failures past this point have nothing to
			// drain and nobody left to route around.
			break
		}
		switch {
		case fd >= 0 && ft <= lt && ft <= at:
			r.failDevice(fd)
		case ld >= 0 && lt <= at:
			r.launch(ld, lt)
		default:
			r.route(ordered[i], i)
			i++
		}
	}

	if math.IsInf(r.total.FirstArrival, 1) {
		r.total.FirstArrival = 0
	}
	res := &Result{Devices: make([]DeviceResult, len(r.devs)), Total: r.total, Router: r.rs}
	for i := range r.devs {
		dr := &r.devs[i]
		d := &f.devices[i]
		if math.IsInf(dr.m.FirstArrival, 1) {
			dr.m.FirstArrival = 0
		}
		health := Healthy
		switch {
		case dr.dead || (d.FailAt > 0 && d.FailAt <= res.Total.LastCompletion):
			health = Failed
		case dr.cold:
			health = Cold
		}
		res.Devices[i] = DeviceResult{Name: d.Name, Backend: d.Backend.Name(), Health: health, Metrics: dr.m}
		res.Total.Launches += dr.m.Launches
		if dr.m.PeakQueue > res.Total.PeakQueue {
			res.Total.PeakQueue = dr.m.PeakQueue
		}
	}
	publishRun(f.opt.Obs, f, res)
	return res, nil
}

// nextLaunch returns the earliest launch across devices (ties break to
// the lowest device index), or (+Inf, -1) when no device can launch.
func (r *run) nextLaunch() (float64, int) {
	best, bi := math.Inf(1), -1
	for i := range r.devs {
		if t := r.launchTime(i); t < best {
			best, bi = t, i
		}
	}
	return best, bi
}

// launchTime computes when device di would launch its next batch: as
// soon as it is free once the head model's batch is full, otherwise
// when the head's MaxWait coalescing deadline or the device-free time
// passes — and never before a warming device's activeAt.
func (r *run) launchTime(di int) float64 {
	dr := &r.devs[di]
	if dr.dead || dr.cold || dr.queue.Len() == 0 {
		return math.Inf(1)
	}
	q := dr.queue.Head()
	maxBatch := r.opt.maxBatch()
	var at float64
	if q.Len() >= maxBatch {
		at = math.Max(dr.free, q.At(maxBatch-1).rt)
	} else {
		at = math.Max(dr.free, q.At(0).rt+r.opt.maxWait())
	}
	if dr.activeAt > at {
		at = dr.activeAt
	}
	return at
}

// nextFailure returns the earliest unprocessed device failure, or
// (+Inf, -1).
func (r *run) nextFailure() (float64, int) {
	best, bi := math.Inf(1), -1
	for i := range r.devs {
		if r.devs[i].dead {
			continue
		}
		if t := r.f.devices[i].FailAt; t > 0 && t < best {
			best, bi = t, i
		}
	}
	return best, bi
}

// route admits one arrival: fan a row-split request out to every slice
// device, or pick one live replica by policy. A request with no live
// target is shed at the router.
func (r *run) route(q Request, idx int) {
	r.total.Arrived++
	r.rs.Requests++
	if q.T < r.total.FirstArrival {
		r.total.FirstArrival = q.T
	}
	pl := r.f.place[q.Model]
	if len(pl.Slices) > 0 {
		// Resolve every slice target before admitting anything: a slice
		// with no live server sheds the whole request rather than
		// burning sibling devices on a fan-out that can never reduce.
		targets, live := r.targets[:0], true
		for _, di := range pl.Slices {
			if r.devs[di].dead {
				di = r.drainTarget(di, q.Model, int64(idx))
			}
			if di < 0 || r.devs[di].dead || r.devs[di].cold {
				live = false
				break
			}
			targets = append(targets, di)
		}
		r.targets = targets
		if !live {
			r.total.Shed++
			if r.tr != nil {
				r.tr.Instant(routerTrack, "shed", q.T, 0,
					obs.Arg{Key: "model", Value: strconv.Itoa(q.Model)},
					obs.Arg{Key: "reason", Value: "no-live-slice"})
			}
			return
		}
		if r.tr != nil {
			r.spans[idx] = r.tr.Begin(routerTrack, "request", q.T, 0)
		}
		r.joins[idx] = join{t: q.T, remaining: len(targets), done: q.T}
		r.rs.Fanout += int64(len(targets))
		for si, di := range targets {
			r.admit(di, pending{t: q.T, rt: q.T, model: q.Model, req: idx, slice: si})
		}
	} else {
		di, preferred := r.pickReplica(pl, int64(idx))
		if di < 0 {
			r.total.Shed++
			if r.tr != nil {
				r.tr.Instant(routerTrack, "shed", q.T, 0,
					obs.Arg{Key: "model", Value: strconv.Itoa(q.Model)},
					obs.Arg{Key: "reason", Value: "no-live-replica"})
			}
			return
		}
		if !preferred {
			r.rs.Rerouted++
		}
		if r.tr != nil {
			r.spans[idx] = r.tr.Begin(routerTrack, "request", q.T, 0)
		}
		r.admit(di, pending{t: q.T, rt: q.T, model: q.Model, req: idx, slice: -1})
	}
	r.scaleOnQueue(q.T)
}

// pickReplica selects a live, non-cold replica by the routing policy;
// preferred reports whether the consistent-hash ring's first owner was
// chosen (always true for least-loaded).
func (r *run) pickReplica(pl Placement, key int64) (dev int, preferred bool) {
	live := func(di int) bool {
		d := &r.devs[di]
		return !d.dead && !d.cold
	}
	if r.opt.Policy == ConsistentHash {
		if rg := r.f.rings[pl.Model]; rg != nil {
			return rg.pick(key, live)
		}
	}
	best := -1
	for _, di := range pl.Replicas {
		if !live(di) {
			continue
		}
		if best < 0 {
			best = di
			continue
		}
		b, d := &r.devs[best], &r.devs[di]
		if d.queue.Len() < b.queue.Len() ||
			(d.queue.Len() == b.queue.Len() && d.free < b.free) {
			best = di
		}
	}
	return best, true
}

// admit applies device-level admission control to one unit.
func (r *run) admit(di int, p pending) {
	dr := &r.devs[di]
	dr.m.Arrived++
	if p.t < dr.m.FirstArrival {
		dr.m.FirstArrival = p.t
	}
	if r.opt.QueueDepth > 0 && dr.queue.Len() >= r.opt.QueueDepth {
		var victim pending
		if r.opt.Shed == ShedOldest {
			victim = dr.queue.PopOldest()
			dr.queue.Push(p.model, p)
		} else {
			victim = p
		}
		dr.m.Shed++
		if r.tr != nil {
			r.tr.Instant(r.f.devices[di].Name, "shed", p.rt, 0,
				obs.Arg{Key: "policy", Value: r.opt.Shed.String()})
		}
		r.fleetShed(victim, p.rt)
		return
	}
	dr.queue.Push(p.model, p)
	r.queued++
	if n := int64(dr.queue.Len()); n > dr.m.PeakQueue {
		dr.m.PeakQueue = n
	}
}

// fleetShed records the fleet-level consequence of dropping one unit: a
// replicated request is shed outright; a slice marks its join so the
// request counts shed exactly once when the last slice resolves.
func (r *run) fleetShed(p pending, at float64) {
	if p.slice < 0 {
		r.total.Shed++
		if r.tr != nil && r.spans[p.req] != 0 {
			r.tr.Annotate(r.spans[p.req], "outcome", "shed")
			r.tr.End(r.spans[p.req], at)
		}
		return
	}
	j := &r.joins[p.req]
	j.shed = true
	if at > j.done {
		j.done = at
	}
	j.remaining--
	if j.remaining == 0 {
		r.finishJoin(p.req, j)
	}
}

// launch pops up to MaxBatch units from the front of the head model's
// FIFO (leaving other models queued), prices the batch on the device's
// backend, and records per-unit and fleet-level completions.
func (r *run) launch(di int, at float64) {
	dr := &r.devs[di]
	q := dr.queue.Head()
	model, maxBatch := q.Model, r.opt.maxBatch()
	members := r.members[:0]
	for len(members) < maxBatch && q.Len() > 0 {
		members = append(members, dr.queue.Pop(q))
	}
	r.members = members
	r.queued -= int64(len(members))

	service := r.f.devices[di].Backend.ServiceCycles(model, len(members))
	done := at + service
	dr.free = done
	dr.m.Launches++
	dr.m.Batch.Record(float64(len(members)))
	if done > dr.m.LastCompletion {
		dr.m.LastCompletion = done
	}

	name := r.f.devices[di].Name
	if r.tr != nil {
		r.tr.Span(name, "batch", at, done, 0,
			obs.Arg{Key: "model", Value: strconv.Itoa(model)},
			obs.Arg{Key: "batch", Value: strconv.Itoa(len(members))})
	}
	for _, p := range members {
		dr.m.Served++
		dr.m.QueueWait.Record(at - p.t)
		dr.m.Service.Record(done - at)
		dr.m.Latency.Record(done - p.t)
		if r.tr != nil {
			parent := r.spans[p.req]
			r.tr.Span(name, "queue", p.t, at, parent)
			r.tr.Span(name, "service", at, done, parent)
		}
		r.completeUnit(p, done)
	}
}

// completeUnit records a unit's fleet-level completion.
func (r *run) completeUnit(p pending, done float64) {
	if p.slice < 0 {
		r.total.Served++
		lat := done - p.t
		r.total.Latency.Record(lat)
		if done > r.total.LastCompletion {
			r.total.LastCompletion = done
		}
		if r.tr != nil && r.spans[p.req] != 0 {
			r.tr.End(r.spans[p.req], done)
		}
		r.onComplete(lat, done)
		return
	}
	j := &r.joins[p.req]
	if done > j.done {
		j.done = done
	}
	j.remaining--
	if j.remaining == 0 {
		r.finishJoin(p.req, j)
	}
}

// finishJoin resolves a split request once its last slice lands: the
// router reduces the partial results (ReduceNs) and records the
// request-level latency, or counts the request shed exactly once.
func (r *run) finishJoin(idx int, j *join) {
	span := obs.SpanID(0)
	if r.tr != nil {
		span = r.spans[idx]
	}
	if j.shed {
		r.total.Shed++
		if span != 0 {
			r.tr.Annotate(span, "outcome", "shed")
			r.tr.End(span, j.done)
		}
		return
	}
	fin := j.done + r.opt.ReduceNs
	r.total.Served++
	r.total.Latency.Record(fin - j.t)
	if fin > r.total.LastCompletion {
		r.total.LastCompletion = fin
	}
	if span != 0 {
		if r.opt.ReduceNs > 0 {
			r.tr.Span(routerTrack, "reduce", j.done, fin, span)
		}
		r.tr.End(span, fin)
	}
	r.onComplete(fin-j.t, fin)
}

// failDevice kills device di at its FailAt: launches stop, and every
// queued unit drains to its failover chain (or a live replica by
// policy) with the dead device's FailAt as its ready time — a sibling
// cannot serve work before it received it. Units with no live target
// are shed.
func (r *run) failDevice(di int) {
	dr := &r.devs[di]
	dr.dead = true
	at := r.f.devices[di].FailAt
	if r.tr != nil {
		r.tr.Instant(r.f.devices[di].Name, "fail", at, 0,
			obs.Arg{Key: "drained", Value: strconv.Itoa(dr.queue.Len())})
	}
	for dr.queue.Len() > 0 {
		p := dr.queue.PopOldest()
		tgt := r.drainTarget(di, p.model, int64(p.req))
		if tgt < 0 {
			r.queued--
			dr.m.Shed++
			r.rs.DrainShed++
			r.fleetShed(p, at)
			continue
		}
		p.rt = at
		dr.m.DrainedOut++
		t := &r.devs[tgt]
		t.m.DrainedIn++
		t.queue.Push(p.model, p)
		if n := int64(t.queue.Len()); n > t.m.PeakQueue {
			t.m.PeakQueue = n
		}
		r.rs.Drained++
	}
}

// drainTarget resolves where a dead device's work for a model goes:
// first along the device's failover chain (cycle-guarded, skipping
// dead, cold and incapable devices — the serve layer's chain walk
// lifted to devices), then to a live replica by routing policy.
func (r *run) drainTarget(from, model int, key int64) int {
	for j, hops := r.f.failover[from], 0; j >= 0 && hops < len(r.devs); j, hops = r.f.failover[j], hops+1 {
		if j == from {
			break // chain closed a cycle back to the dead device
		}
		d := &r.devs[j]
		if !d.dead && !d.cold && r.f.serves(j, model) {
			return j
		}
	}
	pl, ok := r.f.place[model]
	if !ok || len(pl.Replicas) == 0 {
		return -1
	}
	dev, _ := r.pickReplica(pl, key)
	return dev
}

// serves reports whether device di lists the model.
func (f *Fleet) serves(di, model int) bool {
	for _, m := range f.devices[di].Models {
		if m == model {
			return true
		}
	}
	return false
}
