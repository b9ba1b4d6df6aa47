package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"newton/internal/obs"
)

// batchBackend prices a batch-k launch of model m at base + 15m +
// 10(k-1) ns, so devices, models and batch sizes all differ in cost.
type batchBackend struct{ base float64 }

func (b batchBackend) Name() string { return "fuzz" }
func (b batchBackend) ServiceCycles(model, batch int) float64 {
	return b.base + 15*float64(model) + 10*float64(batch-1)
}

// fleetCase is one decoded FuzzFleet input.
type fleetCase struct {
	devices    []Device
	placements []Placement
	opt        Options
	stream     []Request
}

// decodeFleetCase reads a fleet and a stream from bytes (missing bytes
// read as 0):
//
//	0   devices: 2 + b%4
//	1   MaxBatch: 1 + b%8
//	2   MaxWait: 8*b ns
//	3   QueueDepth: b%8 (0 = unbounded); bit 3 picks ShedOldest
//	4   bit 0 ConsistentHash, bit 1 Autoscale
//	5   ReduceNs: 10*(b%4); models: 1 + (b>>2)%3
//	6   Autoscale SLOP99Ns: 40*b (0 = off); Window 2 + (b>>4)
//	7   Autoscale MaxQueue: b%6 (0 = off); WarmupNs 25*(b>>3)
//
// then two bytes per device: service base 40 + 4*(b%64) and Standby
// on bit 6 of the first; FailAt 40*(b%16) ns (0 = never) and FailoverTo
// device (b>>4)%devices (none if that is itself) from the second. Then
// one byte per model: bit 0 splits it, the other bits are a device mask
// (a split needs two non-standby devices and a replica set one device,
// or the model falls back to replicas on its first eligible device).
// The remaining bytes are (gap, model) arrival pairs, at most 400: the
// next arrival comes 5*(gap%32) ns after the previous one, for model
// b % models.
func decodeFleetCase(data []byte) fleetCase {
	pos := 0
	next := func() int {
		if pos < len(data) {
			pos++
			return int(data[pos-1])
		}
		pos++
		return 0
	}
	var c fleetCase
	nDev := 2 + next()%4
	c.opt.MaxBatch = 1 + next()%8
	c.opt.MaxWait = float64(8 * next())
	qd := next()
	c.opt.QueueDepth = qd % 8
	if qd&8 != 0 {
		c.opt.Shed = ShedOldest
	}
	flags := next()
	if flags&1 != 0 {
		c.opt.Policy = ConsistentHash
	}
	b := next()
	c.opt.ReduceNs = float64(10 * (b % 4))
	nModels := 1 + (b>>2)%3
	slo, mq := next(), next()
	if flags&2 != 0 {
		c.opt.Autoscale = &Autoscale{
			SLOP99Ns: float64(40 * slo),
			Window:   2 + slo>>4,
			MaxQueue: int64(mq % 6),
			WarmupNs: float64(25 * (mq >> 3)),
		}
	}

	c.devices = make([]Device, nDev)
	for i := range c.devices {
		a, f := next(), next()
		d := &c.devices[i]
		d.Name = fmt.Sprintf("d%d", i)
		d.Backend = batchBackend{base: float64(40 + 4*(a%64))}
		d.Standby = a&64 != 0
		d.FailAt = float64(40 * (f % 16))
		if to := (f >> 4) % nDev; to != i {
			d.FailoverTo = fmt.Sprintf("d%d", to)
		}
	}
	for m := 0; m < nModels; m++ {
		b := next()
		var set []int
		for i := 0; i < nDev; i++ {
			if (b>>(1+i))&1 != 0 && (b&1 == 0 || !c.devices[i].Standby) {
				set = append(set, i)
			}
		}
		pl := Placement{Model: m}
		switch {
		case b&1 != 0 && len(set) >= 2:
			pl.Slices = set
		case b&1 == 0 && len(set) >= 1:
			pl.Replicas = set
		default:
			pl.Replicas = []int{m % nDev}
		}
		for _, di := range append(append([]int(nil), pl.Replicas...), pl.Slices...) {
			c.devices[di].Models = append(c.devices[di].Models, m)
		}
		c.placements = append(c.placements, pl)
	}

	t := 0.0
	for pos+1 < len(data) && len(c.stream) < 400 {
		gap, m := next(), next()
		t += 5 * float64(gap%32)
		c.stream = append(c.stream, Request{T: t, Model: m % nModels})
	}
	return c
}

// replayCase builds the case's fleet with the given observers and
// replays its stream.
func replayCase(t *testing.T, c fleetCase, reg *obs.Registry, tr *obs.Tracer) *Result {
	t.Helper()
	opt := c.opt
	opt.Obs, opt.Tracer = reg, tr
	f, err := New(c.devices, c.placements, opt)
	if err != nil {
		t.Fatalf("decoded fleet rejected: %v", err)
	}
	res, err := f.Replay(c.stream)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// FuzzFleet drives byte-built fleets (replica and split placements,
// both route and shed policies, bounded queues, batching, outages with
// failover chains, autoscaled standbys) and asserts the router's
// contracts: per-device conservation Arrived + DrainedIn = Served +
// Shed + DrainedOut, fleet Arrived = Served + Shed, no batch launched
// at or after its device's FailAt, and byte-identical Results, span
// forests and expositions across replays — with tracing off, too.
func FuzzFleet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 4, 0, 0, 4, 0, 0, 10, 0, 20, 0, 30, 0, 0x0e, 0x03, 1, 0, 2, 1, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFleetCase(data)
		regA, trA := obs.New(), &obs.Tracer{}
		regB, trB := obs.New(), &obs.Tracer{}
		a := replayCase(t, c, regA, trA)
		b := replayCase(t, c, regB, trB)
		plain := replayCase(t, c, nil, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("two replays of one stream differ:\n%+v\n%+v", a.Total, b.Total)
		}
		if !reflect.DeepEqual(a, plain) {
			t.Fatalf("tracing changed the result:\n%+v\n%+v", a.Total, plain.Total)
		}
		if !reflect.DeepEqual(trA.Spans(), trB.Spans()) {
			t.Fatalf("span forests differ: %d vs %d spans", trA.Len(), trB.Len())
		}
		var ea, eb bytes.Buffer
		if err := regA.WritePrometheus(&ea); err != nil {
			t.Fatal(err)
		}
		if err := regB.WritePrometheus(&eb); err != nil {
			t.Fatal(err)
		}
		if ea.String() != eb.String() {
			t.Fatalf("expositions differ:\n%s", firstDiff(ea.String(), eb.String()))
		}

		if m := &a.Total; m.Arrived != int64(len(c.stream)) || m.Arrived != m.Served+m.Shed {
			t.Fatalf("fleet: %d requests, arrived %d served %d shed %d",
				len(c.stream), m.Arrived, m.Served, m.Shed)
		}
		failAt := map[string]float64{}
		for i, d := range a.Devices {
			m := &d.Metrics
			if m.Arrived+m.DrainedIn != m.Served+m.Shed+m.DrainedOut {
				t.Fatalf("device %s: arrived %d + drained in %d != served %d + shed %d + drained out %d",
					d.Name, m.Arrived, m.DrainedIn, m.Served, m.Shed, m.DrainedOut)
			}
			if fa := c.devices[i].FailAt; fa > 0 {
				failAt[d.Name] = fa
			}
		}
		for _, s := range trA.Spans() {
			if fa, ok := failAt[s.Track]; ok && s.Name == "batch" && s.Start >= fa {
				t.Fatalf("device %s launched a batch at %v, at or after its FailAt %v", s.Track, s.Start, fa)
			}
		}
	})
}
