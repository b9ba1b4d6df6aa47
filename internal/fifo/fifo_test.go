package fifo

import (
	"math/rand"
	"testing"
)

// The ring against a plain slice over a push/pop pattern that wraps the
// ring repeatedly and grows it while wrapped.
func TestRingMatchesSlice(t *testing.T) {
	var q ring[int]
	var model []int
	next := 0
	for step := 0; step < 5000; step++ {
		// Push-heavy phases alternate with pop-heavy ones, so the ring
		// both grows while wrapped and drains to empty.
		push := (step/300)%2 == 0
		if push || len(model) == 0 || step%7 == 0 {
			q.push(next)
			model = append(model, next)
			next++
		} else {
			if got := q.pop(); got != model[0] {
				t.Fatalf("step %d: pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(model))
		}
		if len(model) > 0 {
			if q.front() != model[0] {
				t.Fatalf("step %d: front = %d, want %d", step, q.front(), model[0])
			}
			i := step % len(model)
			if q.at(i) != model[i] {
				t.Fatalf("step %d: at(%d) = %d, want %d", step, i, q.at(i), model[i])
			}
		}
	}
}

// item is a PerModel test item: its model and a unique id.
type item struct{ model, id int }

// PerModel against one mixed queue in push order, scanned the way the
// serving engines did before: the head is the mixed queue's first item,
// the head model's k-th item is the k-th of that model in the scan, and
// a batch removes the model's first k while leaving the others in
// order.
func TestPerModelMatchesMixedQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p PerModel[item]
	var mixed []item
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(mixed) == 0:
			// Model 0 is rare, so its batches skip over the others.
			m := 1 + rng.Intn(3)
			if rng.Intn(8) == 0 {
				m = 0
			}
			it := item{m, step}
			p.Push(m, it)
			mixed = append(mixed, it)
		case op < 8:
			k := 1 + rng.Intn(4)
			h := p.Head()
			if h.Model != mixed[0].model {
				t.Fatalf("step %d: head model %d, mixed queue's head is %d", step, h.Model, mixed[0].model)
			}
			var want []item
			rest := mixed[:0:0]
			for _, it := range mixed {
				if it.model == h.Model && len(want) < k {
					want = append(want, it)
				} else {
					rest = append(rest, it)
				}
			}
			if h.Len() >= k && h.At(k-1) != want[k-1] {
				t.Fatalf("step %d: At(%d) = %v, scan finds %v", step, k-1, h.At(k-1), want[k-1])
			}
			for i := range want {
				if got := p.Pop(h); got != want[i] {
					t.Fatalf("step %d: batch item %d = %v, scan picks %v", step, i, got, want[i])
				}
			}
			mixed = rest
		default:
			if got := p.PopOldest(); got != mixed[0] {
				t.Fatalf("step %d: PopOldest = %v, want %v", step, got, mixed[0])
			}
			mixed = mixed[1:]
		}
		if p.Len() != len(mixed) {
			t.Fatalf("step %d: Len = %d, want %d", step, p.Len(), len(mixed))
		}
	}
	for len(mixed) > 0 {
		if got := p.PopOldest(); got != mixed[0] {
			t.Fatalf("drain: PopOldest = %v, want %v", got, mixed[0])
		}
		mixed = mixed[1:]
	}
	if p.Head() != nil {
		t.Fatal("Head of an empty queue is not nil")
	}
}

// A queue that has held n items per model cycles through any number of
// further items without allocating while it holds at most that many.
func TestPerModelSteadyStateAllocationFree(t *testing.T) {
	var p PerModel[[3]float64]
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			p.Push(i%2, [3]float64{float64(i)})
		}
		for p.Len() > 0 {
			p.PopOldest()
		}
	}
	cycle(200)
	if allocs := testing.AllocsPerRun(100, func() { cycle(120) }); allocs != 0 {
		t.Fatalf("steady-state cycle allocated %v times, want 0", allocs)
	}
}
