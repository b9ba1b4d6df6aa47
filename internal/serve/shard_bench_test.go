package serve

import "testing"

// overloadRun is one shard serving two models unbatched (Newton's
// operating point) at 1.6x its capacity with an unbounded queue, so the
// backlog grows for the whole 10k-request stream: the case where a
// queue that costs O(backlog) per event turns the run quadratic.
func overloadRun() ([]Shard, []Request) {
	backend := mtb(map[int][]float64{0: {400}, 1: {1200}})
	capacity := 1e9 / 800 // qps at the two models' mean service time
	reqs := PoissonArrivals(10000, 1.6*capacity, []float64{1, 1}, 42)
	return []Shard{{Name: "s0", Backend: backend, Models: []int{0, 1}}}, reqs
}

func BenchmarkShardOverload(b *testing.B) {
	shards, reqs := overloadRun()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(shards, reqs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The overloaded run's allocations stay bounded: histograms are sized
// from the stream up front, the per-model FIFOs grow by doubling and
// are reused, and the launch batch is a reused scratch slice, so the
// count does not grow with launches (10k here). Measured: 61 allocs per
// run (the scan-based queue it replaced: 10,130); the bound allows 50%
// headroom.
func TestShardRunAllocsBounded(t *testing.T) {
	shards, reqs := overloadRun()
	res, err := Run(shards, reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m := &res.Total; m.Served != 10000 || m.PeakQueue < 3000 {
		t.Fatalf("served %d, peak queue %d: want all 10000 served behind a backlog of thousands",
			m.Served, m.PeakQueue)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(shards, reqs, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 90 {
		t.Fatalf("%v allocs per overloaded run, bound 90", allocs)
	}
}
