// Package fifo provides PerModel, the batch queue the serving engines
// keep their waiting work in (internal/serve shards and
// internal/cluster devices): one ring-buffer FIFO per model.
//
// A ring's backing array doubles when full and is reused from then on:
// a ring that has once held n items pushes and pops without allocating
// for as long as it holds at most n, however many items pass through
// it. Slicing a queue forward (q = q[k:]) and appending gives up the
// array's front and reallocates about once per cycle through it; the
// ring does not.
package fifo

// ring is a first-in first-out queue. The zero value is empty. front,
// at and pop require a non-empty ring (at an index below len); they are
// the caller's bounds to keep, like a slice's.
type ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the front item in buf
	n    int // items held
}

// len returns the number of queued items.
func (q *ring[T]) len() int { return q.n }

// push appends v at the back.
func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// front returns the oldest item without removing it.
func (q *ring[T]) front() T { return q.buf[q.head] }

// at returns the i-th oldest item (at(0) is front).
func (q *ring[T]) at(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// pop removes and returns the oldest item.
func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring (8 slots at first), unrolling the held items to
// the front of the new array in queue order.
func (q *ring[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// PerModel is a batch queue kept as one FIFO per model, the discipline
// a batcher that launches one model at a time needs. Push stamps every
// item with the next sequence number, so each model's FIFO is sorted by
// stamp and the queue's head — its oldest item — is the FIFO front with
// the lowest stamp, found in O(models). The items of one model keep
// their relative push order, so a model's FIFO front holds the same
// items, in the same order, as a scan of one mixed queue in push order
// for that model's first k: a batch is taken in O(k), not O(queue).
// The zero value is an empty queue.
type PerModel[T any] struct {
	fifos []ModelFIFO[T] // in order of each model's first push
	n     int
	seq   uint64
}

// ModelFIFO is one model's FIFO inside a PerModel.
type ModelFIFO[T any] struct {
	Model int
	q     ring[stamped[T]]
}

// stamped is an item with its push sequence number.
type stamped[T any] struct {
	seq uint64
	v   T
}

// Len returns the number of the model's queued items.
func (f *ModelFIFO[T]) Len() int { return f.q.len() }

// At returns the model's i-th oldest item (At(0) is its front).
func (f *ModelFIFO[T]) At(i int) T { return f.q.at(i).v }

// Len returns the number of queued items across all models.
func (p *PerModel[T]) Len() int { return p.n }

// Push appends v at the back of the model's FIFO.
func (p *PerModel[T]) Push(model int, v T) {
	k := 0
	for k < len(p.fifos) && p.fifos[k].Model != model {
		k++
	}
	if k == len(p.fifos) {
		p.fifos = append(p.fifos, ModelFIFO[T]{Model: model})
	}
	p.fifos[k].q.push(stamped[T]{p.seq, v})
	p.seq++
	p.n++
}

// Head returns the FIFO holding the oldest queued item, or nil when
// the queue is empty. The pointer is valid until the next Push.
func (p *PerModel[T]) Head() *ModelFIFO[T] {
	var h *ModelFIFO[T]
	for k := range p.fifos {
		f := &p.fifos[k]
		if f.q.len() > 0 && (h == nil || f.q.front().seq < h.q.front().seq) {
			h = f
		}
	}
	return h
}

// Pop removes and returns the front of f, one of p's FIFOs.
func (p *PerModel[T]) Pop(f *ModelFIFO[T]) T {
	p.n--
	return f.q.pop().v
}

// PopOldest removes and returns the oldest queued item.
func (p *PerModel[T]) PopOldest() T { return p.Pop(p.Head()) }
