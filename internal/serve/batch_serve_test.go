package serve

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// TestServiceDoCloseShutdownRace is the shutdown-hang regression test: Do
// used to check closed only before enqueueing, so a request slipped into
// the queue after Close's one-shot drain was never answered and its caller
// blocked on <-req.done forever. With the post-enqueue re-check every Do
// racing Close must return — served or ErrClosed — within the watchdog.
func TestServiceDoCloseShutdownRace(t *testing.T) {
	vec := tensor.Vector{1, 0}
	pol := PolicyNone()
	pol.Deadline = 10
	watchdog := time.After(60 * time.Second)
	for iter := 0; iter < 150; iter++ {
		pipe := &stubPipe{infer: func() (tensor.Vector, bool) { return vec.Clone(), true }}
		svc := NewService(pol, []*Replica{NewReplica(0, pipe, pol)}, nil, 1)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 3; i++ {
					if _, err := svc.Do(vec); err == ErrClosed {
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			svc.Close()
		}()
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-watchdog:
			t.Fatal("a Do blocked forever across Close — the post-enqueue closed re-check is broken")
		}
	}
}

// TestPickRotationOverflow is the rotation-counter regression test: pick
// used to compute int(rr.Add(1)) % n, which goes negative — and indexes out
// of range — once the uint64 counter maps to a negative int (wrap-around,
// or any count past 2³¹ on 32-bit platforms). Seeded at the wrap points,
// pick must keep returning in-rotation replicas.
func TestPickRotationOverflow(t *testing.T) {
	vec := tensor.Vector{1}
	pol := PolicyNone()
	var reps []*Replica
	for i := 0; i < 3; i++ {
		pipe := &stubPipe{infer: func() (tensor.Vector, bool) { return vec.Clone(), true }}
		reps = append(reps, NewReplica(i, pipe, pol))
	}
	svc := NewService(pol, reps, nil, 1)
	defer svc.Close()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for _, seed := range []uint64{math.MaxUint64 - 2, math.MaxInt64 - 1, math.MaxInt64} {
		svc.core.rr = seed
		for i := 0; i < 5; i++ {
			r, _ := svc.core.pick(svc.now(), nil)
			if r == nil {
				t.Fatalf("pick returned nil from a healthy pool at rr seed %d", seed)
			}
			if r.ID < 0 || r.ID >= len(reps) {
				t.Fatalf("pick returned out-of-pool replica %d at rr seed %d", r.ID, seed)
			}
		}
	}
}

// queueLen reports how many requests sit in the service's admission queue.
func queueLen(svc *Service) int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return len(svc.core.queue)
}

// TestServiceBatchDropsExpiredFromBlock choreographs a mixed coalesced
// block on the Manual clock: a plug request holds the single replica while
// five requests queue behind it with staggered deadlines; by the time the
// replica frees, three have expired in the queue. Those must be dropped
// from the block before dispatch — counted expired, answered ErrDeadline,
// never served — while the two still-live members are served through one
// coalesced dispatch.
func TestServiceBatchDropsExpiredFromBlock(t *testing.T) {
	pol := PolicyNone()
	pol.Deadline = 10
	pol.BatchMax = 8
	vec := tensor.Vector{0, 1}
	var calls atomic.Int32
	blocked := make(chan struct{})
	release := make(chan struct{})
	pipe := &stubPipe{infer: func() (tensor.Vector, bool) {
		if calls.Add(1) == 1 {
			close(blocked)
			<-release
		}
		return vec.Clone(), true
	}}
	svc := NewService(pol, []*Replica{NewReplica(0, pipe, pol)}, nil, 1)
	defer svc.Close()
	clk := obs.NewManual(time.Unix(0, 0))
	svc.SetClock(clk)

	do := func(ch chan error) {
		go func() {
			_, err := svc.Do(tensor.Vector{0})
			ch <- err
		}()
	}

	// The plug dispatches immediately (free replica) and blocks inside its
	// inference, keeping the replica busy.
	plugCh := make(chan error, 1)
	do(plugCh)
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("plug request never dispatched")
	}

	// Three requests queue at t=0 (deadline t=10) ...
	staleCh := make(chan error, 3)
	for i := 0; i < 3; i++ {
		do(staleCh)
	}
	waitUntil(t, func() bool { return queueLen(svc) == 3 })
	// ... and two more at t=5 (deadline t=15).
	clk.Advance(5 * time.Second)
	liveCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		do(liveCh)
	}
	waitUntil(t, func() bool { return queueLen(svc) == 5 })

	// t=11: the plug's deadline fires (it expires), and so do the first
	// three queued members'.
	clk.Advance(6 * time.Second)
	select {
	case err := <-plugCh:
		if err != ErrDeadline {
			t.Fatalf("plug request: err = %v, want ErrDeadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("plug request never returned after its deadline fired")
	}
	close(release) // the plug's late completion frees the replica for the block

	for i := 0; i < 3; i++ {
		select {
		case err := <-staleCh:
			if err != ErrDeadline {
				t.Fatalf("stale member %d: err = %v, want ErrDeadline", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stale member never answered")
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-liveCh:
			if err != nil {
				t.Fatalf("live member %d: unexpected error %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("live member never served")
		}
	}

	c := svc.Counters()
	if c.Expired != 4 {
		t.Fatalf("Expired = %d, want 4 (plug + 3 stale in queue)", c.Expired)
	}
	if c.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", c.Completed)
	}
	if c.Batches != 1 || c.Coalesced != 2 {
		t.Fatalf("Batches/Coalesced = %d/%d, want 1/2 (one block of the two live members)",
			c.Batches, c.Coalesced)
	}
}

// TestServiceBatchWaitOnInjectedClock pins two properties of the gather
// timer: it collects late arrivals into the block, and it runs on the
// service clock — 30 virtual seconds of BatchWait must cost milliseconds
// of wall time, not a real timer.
func TestServiceBatchWaitOnInjectedClock(t *testing.T) {
	pol := PolicyNone()
	pol.Deadline = 1e4
	pol.BatchMax = 3
	pol.BatchWait = 30 // lethal if this ever hits a wall-clock timer
	vec := tensor.Vector{0, 1}
	var calls atomic.Int32
	release := make(chan struct{})
	pipe := &stubPipe{infer: func() (tensor.Vector, bool) {
		if calls.Add(1) == 1 {
			<-release
		}
		return vec.Clone(), true
	}}
	svc := NewService(pol, []*Replica{NewReplica(0, pipe, pol)}, nil, 1)
	defer svc.Close()
	clk := obs.NewManual(time.Unix(0, 0))
	svc.SetClock(clk)

	t0 := time.Now()
	resCh := make(chan error, 3)
	do := func() {
		go func() {
			_, err := svc.Do(tensor.Vector{0})
			resCh <- err
		}()
	}
	// A plug holds the only replica until its deadline has passed, while
	// one request queues behind it.
	do()
	waitUntil(t, func() bool { return calls.Load() == 1 })
	clk.Advance(5000 * time.Second)
	do()
	waitUntil(t, func() bool { return queueLen(svc) == 1 })
	clk.Advance(5001 * time.Second)
	if err := <-resCh; err != ErrDeadline {
		t.Fatalf("plug request: err = %v, want ErrDeadline", err)
	}
	// The plug's late completion frees the replica facing a short block:
	// the gather opens, and an arrival during it joins the block while
	// virtual time stands still.
	close(release)
	waitUntil(t, func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.core.gather != nil
	})
	do()
	waitUntil(t, func() bool { return queueLen(svc) == 2 })
	// One advance past BatchWait fires the gather timer and dispatches the
	// block.
	clk.Advance(31 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-resCh:
			if err != nil {
				t.Fatalf("batched request %d failed: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("batched request never served — gather wait is not on the injected clock")
		}
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("30 virtual seconds of BatchWait took %v wall time", el)
	}
	c := svc.Counters()
	if c.Batches != 1 || c.Coalesced != 2 || c.Completed != 2 {
		t.Fatalf("Batches/Coalesced/Completed = %d/%d/%d, want 1/2/2", c.Batches, c.Coalesced, c.Completed)
	}
}

// batchSimMetrics runs one saturating single-replica simulator arm (heavy
// overload, so the queue builds and blocks coalesce) with the given
// BatchMax and returns its metrics.
func batchSimMetrics(golden *nn.MLP, train, test *dataset.Classification, bmax int) Metrics {
	pol := PolicyRetry()
	pol.BatchMax = bmax
	pipe := NewMLPPipeline(golden, train.X[:4], DefaultMLPPipelineConfig(), nil, rngutil.New(8))
	reps := []*Replica{NewReplica(0, pipe, pol)}
	var reqs []SimRequest
	for i := range test.X {
		reqs = append(reqs, SimRequest{X: test.X[i], Want: test.Y[i]})
	}
	return RunSim(SimConfig{
		Policy: pol, Lat: DefaultLatencyModel(),
		Duration: 0.3, Rate: 2500,
		Requests: reqs,
		RNG:      rngutil.New(6),
	}, reps)
}

// TestSimBatchMaxOneDegenerates pins the exact degeneracy: BatchMax=1 (and
// 0) must reproduce the unbatched simulator bit for bit — same draws, same
// dispositions, same latencies.
func TestSimBatchMaxOneDegenerates(t *testing.T) {
	golden, train, test := trainTestMLP(31)
	off := batchSimMetrics(golden, train, test, 0)
	one := batchSimMetrics(golden, train, test, 1)
	if !reflect.DeepEqual(off, one) {
		t.Fatalf("BatchMax=1 diverged from unbatched:\noff %+v\none %+v", off, one)
	}
	if off.Batches != 0 || one.Batches != 0 {
		t.Fatalf("degenerate arms recorded batches: %d / %d", off.Batches, one.Batches)
	}
}

// TestSimBatchingWorkerInvariance is the batched analogue of the
// determinism acceptance: the same batched arm must produce identical
// metrics — dispositions, batch counters, and the full latency
// distribution — at any tile-engine worker count, and its accounting must
// balance (every offered request reaches exactly one terminal
// disposition, queue-expired members included). Under saturation batching
// must also complete strictly more requests than single dispatch.
func TestSimBatchingWorkerInvariance(t *testing.T) {
	defer par.SetWorkers(0)
	golden, train, test := trainTestMLP(31)
	par.SetWorkers(1)
	w1 := batchSimMetrics(golden, train, test, 8)
	par.SetWorkers(4)
	w4 := batchSimMetrics(golden, train, test, 8)
	if !reflect.DeepEqual(w1, w4) {
		t.Fatalf("batched sim metrics differ across worker counts:\nw1 %+v\nw4 %+v", w1, w4)
	}
	if w1.Batches == 0 {
		t.Fatal("saturating load never coalesced a block")
	}
	if w1.Coalesced <= w1.Batches {
		t.Fatalf("Coalesced %d / Batches %d: blocks never held more than one request",
			w1.Coalesced, w1.Batches)
	}
	if w1.Expired == 0 {
		t.Fatal("saturating load never expired a queued request — the queue-expiry path went unexercised")
	}
	if err := w1.Check(); err != nil {
		t.Fatalf("batched arm accounting does not balance: %v", err)
	}
	off := batchSimMetrics(golden, train, test, 0)
	if err := off.Check(); err != nil {
		t.Fatalf("unbatched arm accounting does not balance: %v", err)
	}
	if w1.Completed <= off.Completed {
		t.Fatalf("batched arm completed %d ≤ unbatched %d under saturation — coalescing bought nothing",
			w1.Completed, off.Completed)
	}
}
