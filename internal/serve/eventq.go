package serve

// EventQueue is the virtual-time event queue of the discrete-event
// simulators (RunSim here and the fleet simulator in internal/cluster).
// Events pop in time order, and events at the same time in the order they
// were pushed, so a run is deterministic. It is a binary heap over values:
// pushing an event allocates nothing once the backing slice has grown.
type EventQueue[E any] struct {
	h   []queued[E]
	seq int64
}

type queued[E any] struct {
	t   float64
	seq int64
	ev  E
}

func (a *queued[E]) before(b *queued[E]) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Len reports the number of pending events.
func (q *EventQueue[E]) Len() int { return len(q.h) }

// Push schedules ev at virtual time t.
func (q *EventQueue[E]) Push(t float64, ev E) {
	q.seq++
	q.h = append(q.h, queued[E]{t: t, seq: q.seq, ev: ev})
	h := q.h
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// Pop removes the earliest pending event and returns it with its time. It
// panics on an empty queue.
func (q *EventQueue[E]) Pop() (float64, E) {
	h := q.h
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = queued[E]{} // drop the references the event held
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(&h[j]) {
			j = r
		}
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	q.h = h
	return top.t, top.ev
}
