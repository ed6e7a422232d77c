package serve

import (
	"sort"
	"testing"

	"repro/internal/rngutil"
)

// TestEventQueueOrder pins the queue's contract: events pop in time order,
// and events at equal times in push order, including when pushes are
// interleaved with pops.
func TestEventQueueOrder(t *testing.T) {
	type ev struct {
		t float64
		i int
	}
	rng := rngutil.New(3)
	var q EventQueue[int]
	var pending, popped []ev
	push := func(i int) {
		e := ev{float64(rng.Intn(20)), i}
		pending = append(pending, e)
		q.Push(e.t, e.i)
	}
	pop := func() {
		sort.SliceStable(pending, func(a, b int) bool { return pending[a].t < pending[b].t })
		want := pending[0]
		pending = pending[1:]
		at, i := q.Pop()
		if at != want.t || i != want.i {
			t.Fatalf("pop %d: got (%v, %d), want (%v, %d)", len(popped), at, i, want.t, want.i)
		}
		popped = append(popped, want)
	}
	for i := 0; i < 300; i++ {
		push(i)
		if i%3 == 2 {
			pop()
		}
	}
	for q.Len() > 0 {
		pop()
	}
	if len(pending) != 0 || len(popped) != 300 {
		t.Fatalf("popped %d of 300 events, %d left over", len(popped), len(pending))
	}
}
