package serve

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// stubPipe is a scripted Pipeline for live-runtime tests: Infer delegates
// to a closure, canaries are clean (and counted), recalibration free.
type stubPipe struct {
	infer    func() (tensor.Vector, bool)
	canaries atomic.Int32
}

func (p *stubPipe) Infer(x tensor.Vector, verify bool) (tensor.Vector, bool) { return p.infer() }
func (p *stubPipe) CanaryDivergence() float64                                { p.canaries.Add(1); return 0 }
func (p *stubPipe) Recalibrate() RecalStats                                  { return RecalStats{} }

// driveManual advances m in small virtual steps from a background goroutine
// until the returned stop func is called — the stand-in for "time passes"
// in tests that route every timer through the Manual clock.
func driveManual(m *obs.Manual, step time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
				m.Advance(step)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	return func() { close(done); <-finished }
}

// TestRetryBackoffUsesVirtualClock is the satellite-1 regression test: the
// retry backoff used to call time.Sleep directly, so a test with seconds of
// backoff burned seconds of wall clock. Routed through obs.Clock, a Manual
// clock serves 15 virtual seconds of backoff in milliseconds of wall time.
func TestRetryBackoffUsesVirtualClock(t *testing.T) {
	pol := PolicyNone()
	pol.VerifyReads = true
	pol.MaxAttempts = 3
	pol.RetryBackoff = 5.0 // 5s then 10s of virtual backoff — lethal if real
	pol.Deadline = 120.0

	vec := tensor.Vector{1, 0}
	pipe := &stubPipe{infer: func() (tensor.Vector, bool) { return vec.Clone(), false }}
	svc := NewService(pol, []*Replica{NewReplica(0, pipe, pol)}, nil, 1)
	defer svc.Close()
	clk := obs.NewManual(time.Unix(0, 0))
	svc.SetClock(clk)
	stop := driveManual(clk, 500*time.Millisecond)
	defer stop()

	t0 := time.Now()
	y, err := svc.Do(tensor.Vector{0})
	if err != nil {
		t.Fatalf("Do failed: %v", err)
	}
	if y == nil {
		t.Fatal("Do returned nil vector without error")
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("15s of virtual backoff took %v wall time — backoff is not on the injected clock", el)
	}
	c := svc.Counters()
	if c.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (MaxAttempts 3, every attempt suspect)", c.Retries)
	}
	if c.SuspectServed != 1 {
		t.Fatalf("SuspectServed = %d, want 1 (final attempt served the suspect read)", c.SuspectServed)
	}
}

// TestAttemptDeadlineSuspectAccounted is the satellite-2 regression test:
// the attempt deadline path returns a verify-failed suspect vector as
// ok=true, which used to be served with no accounting at all. It must now
// land in Counters().SuspectServed.
//
// Choreography (all on the Manual clock): the primary attempt blocks until
// released, the hedge fires and blocks forever, the primary then completes
// verify-failed (suspect in hand, hedge still in flight), and finally the
// deadline fires — serving the suspect.
func TestAttemptDeadlineSuspectAccounted(t *testing.T) {
	pol := PolicyNone()
	pol.VerifyReads = true
	pol.MaxAttempts = 1
	pol.Hedge = true
	pol.HedgeQuantile = 0.85
	pol.HedgeMin = 1e-3
	pol.Deadline = 0.1

	vec := tensor.Vector{0, 1}
	var calls atomic.Int32
	var firstID atomic.Int32
	releasePrimary := make(chan struct{})
	releaseHedge := make(chan struct{})
	hedgeEntered := make(chan struct{})
	mkPipe := func(id int32) *stubPipe {
		return &stubPipe{infer: func() (tensor.Vector, bool) {
			if calls.Add(1) == 1 {
				firstID.Store(id)
				<-releasePrimary
				return vec.Clone(), false // verify-failed: the suspect
			}
			close(hedgeEntered)
			<-releaseHedge
			return vec.Clone(), true
		}}
	}
	reps := []*Replica{
		NewReplica(0, mkPipe(0), pol),
		NewReplica(1, mkPipe(1), pol),
	}
	svc := NewService(pol, reps, nil, 1)
	defer close(releaseHedge)
	defer svc.Close()
	clk := obs.NewManual(time.Unix(0, 0))
	svc.SetClock(clk)

	type doRes struct {
		y   tensor.Vector
		err error
	}
	resCh := make(chan doRes, 1)
	go func() {
		y, err := svc.Do(tensor.Vector{0})
		resCh <- doRes{y, err}
	}()

	// Let the primary dispatch, then advance past the hedge delay (1ms
	// floor) so the hedge launches into its forever-block.
	waitUntil(t, func() bool { return calls.Load() >= 1 })
	clk.Advance(2 * time.Millisecond)
	select {
	case <-hedgeEntered:
	case <-time.After(10 * time.Second):
		t.Fatal("hedge attempt never started")
	}

	// Release the primary; wait until its verify-failed result has been
	// folded into its health window (the suspect is now in hand), then fire
	// the deadline with the hedge still in flight.
	close(releasePrimary)
	primary := reps[firstID.Load()]
	waitUntil(t, func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return primary.Health.HedgeDelay(0.5, 0, 0) > 0
	})
	clk.Advance(200 * time.Millisecond)

	select {
	case r := <-resCh:
		if r.err != nil {
			t.Fatalf("Do failed: %v (suspect should have been served)", r.err)
		}
		if r.y == nil {
			t.Fatal("Do returned nil without error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do never returned after the deadline fired")
	}
	c := svc.Counters()
	if c.SuspectServed != 1 {
		t.Fatalf("SuspectServed = %d, want 1 — deadline path served a suspect without accounting", c.SuspectServed)
	}
	if c.Hedges != 1 {
		t.Fatalf("Hedges = %d, want 1", c.Hedges)
	}
	if c.Served != 1 {
		t.Fatalf("Served = %d, want 1", c.Served)
	}
}

// TestLateAttemptUpdatesHealth pins that an attempt finishing after its
// caller's deadline still reaches Health: the caller gets ErrDeadline at
// the deadline, and the straggler's latency is folded into the replica's
// accounting when it lands, instead of being dropped.
func TestLateAttemptUpdatesHealth(t *testing.T) {
	pol := PolicyNone()
	pol.Deadline = 0.1

	vec := tensor.Vector{0, 1}
	entered := make(chan struct{})
	release := make(chan struct{})
	pipe := &stubPipe{infer: func() (tensor.Vector, bool) {
		close(entered)
		<-release
		return vec.Clone(), true
	}}
	rep := NewReplica(0, pipe, pol)
	svc := NewService(pol, []*Replica{rep}, nil, 1)
	defer svc.Close()
	clk := obs.NewManual(time.Unix(0, 0))
	svc.SetClock(clk)

	resCh := make(chan error, 1)
	go func() {
		_, err := svc.Do(tensor.Vector{0})
		resCh <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("attempt never started")
	}
	clk.Advance(200 * time.Millisecond)
	select {
	case err := <-resCh:
		if err != ErrDeadline {
			t.Fatalf("Do: err = %v, want ErrDeadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do never returned after the deadline fired")
	}
	latency := func() float64 {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return rep.Health.latEWMA
	}
	if l := latency(); l != 0 {
		t.Fatalf("Health latency %v before the attempt finished, want 0", l)
	}

	// The straggler lands 200ms after dispatch: Health must see exactly it.
	close(release)
	waitUntil(t, func() bool { return latency() != 0 })
	if l := latency(); l != 0.2 {
		t.Fatalf("Health latency = %v, want the late attempt's 0.2s", l)
	}
	if c := svc.Counters(); c.Expired != 1 || c.Served != 0 {
		t.Fatalf("Expired/Served = %d/%d, want 1/0", c.Expired, c.Served)
	}
}

// TestCanaryRoundsOnServiceClock pins the canary cadence to the service
// clock: with time standing still no round runs, and each advance of
// CanaryEvery runs exactly one round on every replica in rotation, the
// replicas staggered across the period. A quarantined replica is skipped.
func TestCanaryRoundsOnServiceClock(t *testing.T) {
	pol := PolicyFull()
	pol.CanaryEvery = 3 // seconds
	vec := tensor.Vector{0, 1}
	var pipes []*stubPipe
	var reps []*Replica
	for i := 0; i < 3; i++ {
		p := &stubPipe{infer: func() (tensor.Vector, bool) { return vec.Clone(), true }}
		pipes = append(pipes, p)
		reps = append(reps, NewReplica(i, p, pol))
	}
	// Replica 2 is out of rotation from the start.
	for reps[2].Health.ObserveCanary(1) != Quarantined {
	}
	svc := NewService(pol, reps, nil, 1)
	defer svc.Close()
	clk := newStepClock()
	svc.SetClock(clk)

	rounds := func() [3]int32 {
		settle(t, svc, clk)
		var n [3]int32
		for i, p := range pipes {
			n[i] = p.canaries.Load()
		}
		return n
	}
	time.Sleep(20 * time.Millisecond) // wall time passes, virtual time does not
	if n := rounds(); n != [3]int32{} {
		t.Fatalf("canary rounds %v with the clock standing still, want none", n)
	}
	for period := int32(1); period <= 3; period++ {
		// One third of the period brings replica 0's round, two thirds
		// replica 1's, the full period replica 2's (skipped: quarantined).
		clk.Advance(time.Second)
		if n := rounds(); n != [3]int32{period, period - 1, 0} {
			t.Fatalf("period %d, 1/3: canary rounds %v", period, n)
		}
		clk.Advance(time.Second)
		if n := rounds(); n != [3]int32{period, period, 0} {
			t.Fatalf("period %d, 2/3: canary rounds %v", period, n)
		}
		clk.Advance(time.Second)
		if n := rounds(); n != [3]int32{period, period, 0} {
			t.Fatalf("period %d, 3/3: canary rounds %v", period, n)
		}
	}
}

// waitUntil polls cond with a generous wall-clock bound; these tests are
// event-choreographed, so the bound only trips on a real deadlock.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
