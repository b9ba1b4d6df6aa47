package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"newton/internal/obs"
)

// shardCase is one decoded FuzzServeShard input: a shard's options,
// backend, fault plan and arrival stream.
type shardCase struct {
	opt    Options
	plan   *FaultPlan
	trace  bool
	models []int
	times  map[int][]float64
	arr    []Request
}

// fuzzModelIDs are the global model indices a fuzzed shard serves; they
// are deliberately not 0..n-1, as a shard's models need not be.
var fuzzModelIDs = []int{7, 2, 11}

// decodeShardCase reads a case from bytes (missing bytes read as 0):
//
//	0  models: 1 + b%3
//	1  MaxBatch: 1 + b%8
//	2  MaxWait: 8*b ns
//	3  QueueDepth: b%8 (0 = unbounded); bit 3 picks ShedOldest
//	4  bit 0 attaches a tracer, bit 1 a FaultPlan
//	5  DetectedPerLaunch (b%8)/10, MaxRetries (b>>3)%3
//	6  DegradeAfter b%4, DegradedPenalty 1 + 0.5*((b>>2)%4)
//	7  FailAt 20*b ns (0 = never)
//	8  fault seed
//
// then (gap, model) pairs, at most 400: the next arrival comes 10*(gap%32)
// ns after the previous one (ties included), for the first model when
// the byte is below 40 — a sparse head model behind the others — and
// otherwise for one of the rest.
func decodeShardCase(data []byte) shardCase {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	var c shardCase
	c.models = fuzzModelIDs[:1+at(0)%3]
	c.opt = Options{
		MaxBatch:   1 + at(1)%8,
		MaxWait:    float64(8 * at(2)),
		QueueDepth: at(3) % 8,
	}
	if at(3)&8 != 0 {
		c.opt.Policy = ShedOldest
	}
	c.trace = at(4)&1 != 0
	if at(4)&2 != 0 {
		c.plan = &FaultPlan{
			Seed:              int64(at(8)),
			DetectedPerLaunch: float64(at(5)%8) / 10,
			MaxRetries:        (at(5) >> 3) % 3,
			DegradeAfter:      int64(at(6) % 4),
			DegradedPenalty:   1 + 0.5*float64((at(6)>>2)%4),
			FailAt:            float64(20 * at(7)),
		}
	}
	c.times = make(map[int][]float64, len(c.models))
	for k, m := range c.models {
		tab := make([]float64, 8)
		for j := range tab {
			tab[j] = float64(60+40*k) + 25*float64(j)
		}
		c.times[m] = tab
	}
	t := 0.0
	for i := 9; i+1 < len(data) && len(c.arr) < 400; i += 2 {
		t += 10 * float64(data[i]%32)
		m := c.models[0]
		if len(c.models) > 1 && data[i+1] >= 40 {
			m = c.models[1+int(data[i+1])%(len(c.models)-1)]
		}
		c.arr = append(c.arr, Request{T: t, Model: m})
	}
	return c
}

// shardOutcome is everything a shard run reports.
type shardOutcome struct {
	m        Metrics
	health   Health
	detected int64
	spans    []obs.Span
}

// runShardCase runs c through the per-model-FIFO shard (ref = false) or
// the scan-based reference shard (ref = true).
func runShardCase(c shardCase, ref bool) shardOutcome {
	var tr *obs.Tracer
	if c.trace {
		tr = &obs.Tracer{}
	}
	var rng *rand.Rand
	if c.plan != nil {
		rng = rand.New(rand.NewSource(c.plan.Seed))
	}
	backend := &TableBackend{Label: "table", Times: c.times}
	var out shardOutcome
	if ref {
		s := refShardSim{backend: backend, opt: c.opt, plan: c.plan, rng: rng, arr: c.arr, name: "s0", tr: tr}
		out = shardOutcome{m: s.run(), health: s.health, detected: s.detected}
	} else {
		s := shardSim{backend: backend, opt: c.opt, plan: c.plan, rng: rng, arr: c.arr, name: "s0", tr: tr}
		out = shardOutcome{m: s.run(), health: s.health, detected: s.detected}
	}
	if tr != nil {
		out.spans = tr.Spans()
	}
	return out
}

// histSamples lists a histogram's samples in recording order.
func histSamples(h *Histogram) []float64 {
	var v []float64
	h.Each(func(x float64) { v = append(v, x) })
	return v
}

// diffShardMetrics describes the first difference between two shard
// metric sets — counters, then every histogram's samples in recording
// order, bit for bit — or returns "" when they are identical.
func diffShardMetrics(a, b *Metrics) string {
	type counters struct {
		Arrived, Served, Shed, Launches, Retried, PeakQueue int64
		FirstArrival, LastCompletion                        uint64
	}
	count := func(m *Metrics) counters {
		return counters{m.Arrived, m.Served, m.Shed, m.Launches, m.Retried, m.PeakQueue,
			math.Float64bits(m.FirstArrival), math.Float64bits(m.LastCompletion)}
	}
	if ca, cb := count(a), count(b); ca != cb {
		return fmt.Sprintf("counters %+v vs %+v", ca, cb)
	}
	hists := []struct {
		name string
		a, b *Histogram
	}{
		{"Latency", &a.Latency, &b.Latency},
		{"QueueWait", &a.QueueWait, &b.QueueWait},
		{"Service", &a.Service, &b.Service},
		{"Batch", &a.Batch, &b.Batch},
	}
	for _, h := range hists {
		sa, sb := histSamples(h.a), histSamples(h.b)
		if len(sa) != len(sb) {
			return fmt.Sprintf("%s: %d samples vs %d", h.name, len(sa), len(sb))
		}
		for i := range sa {
			if math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
				return fmt.Sprintf("%s sample %d: %v vs %v", h.name, i, sa[i], sb[i])
			}
		}
	}
	return ""
}

// FuzzServeShard holds the per-model-FIFO shard to the scan-based
// reference shard: for any stream, options and fault plan, identical
// Metrics (every counter and every histogram's samples in recording
// order), health, detection count and span forest.
func FuzzServeShard(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 6, 0, 1, 0, 0, 0, 0, 5, 0, 2, 50, 0, 60, 7, 0, 3, 41, 0, 0, 1, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeShardCase(data)
		got, want := runShardCase(c, false), runShardCase(c, true)
		if d := diffShardMetrics(&got.m, &want.m); d != "" {
			t.Fatalf("metrics differ from the reference shard: %s\ncase: %+v", d, c.opt)
		}
		if got.health != want.health || got.detected != want.detected {
			t.Fatalf("health %v / detected %d, reference %v / %d", got.health, got.detected, want.health, want.detected)
		}
		if !reflect.DeepEqual(got.spans, want.spans) {
			t.Fatalf("span forests differ: %d spans vs %d in the reference", len(got.spans), len(want.spans))
		}
		if m := &got.m; m.Arrived != int64(len(c.arr)) || m.Arrived != m.Served+m.Shed {
			t.Fatalf("accounting: %d requests, arrived %d served %d shed %d",
				len(c.arr), m.Arrived, m.Served, m.Shed)
		}
	})
}
