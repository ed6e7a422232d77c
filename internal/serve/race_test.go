package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// TestReplicaReadsDuringReprogram is the single-writer-contract test: many
// goroutines hammer forward reads on a replica while another repeatedly
// reprograms it from golden. The replica mutex is the documented ownership
// handoff; under -race this proves the arrays underneath never see two
// operations at once (crossbar.Array additionally panics on overlap).
func TestReplicaReadsDuringReprogram(t *testing.T) {
	replicaReprogramHammer(t)
}

// TestReplicaReadsDuringReprogramParallelTiles re-runs the reprogram hammer
// with the tile engine forced to 8 workers, so tile goroutines are
// genuinely in flight inside every array op while ownership bounces between
// readers and the reprogrammer — the engine's goroutines must stay confined
// to the op that spawned them.
func TestReplicaReadsDuringReprogramParallelTiles(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(8)
	replicaReprogramHammer(t)
}

func replicaReprogramHammer(t *testing.T) {
	golden, train, test := trainTestMLP(41)
	eng := faults.NewEngine(faults.Plan{DriftBurstEvery: 40, DriftBurstDt: 20},
		rngutil.New(7))
	pipe := NewMLPPipeline(golden, train.X[:8], DefaultMLPPipelineConfig(), eng.Attach,
		rngutil.New(9))
	rep := NewReplica(0, pipe, PolicyFull())

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				x := test.X[(g*31+i)%len(test.X)]
				if y, _ := rep.Infer(x, i%2 == 0); y == nil {
					t.Error("Infer returned nil during reprogram hammer")
					return
				}
				reads.Add(1)
			}
		}(g)
	}
	for i := 0; i < 15; i++ {
		rep.Recalibrate()
		rep.Canary()
	}
	stop.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no forward reads completed during the reprogram hammer")
	}
}

// TestServiceConcurrentHammer drives the real goroutine runtime end to end
// under -race: a worker pool serving concurrent Do calls with deadlines and
// hedging while the canary prober and background recalibrator run against
// fault-injected replicas. Heavy drift forces quarantine/recalibration
// cycles, so background reprograms genuinely overlap live traffic.
func TestServiceConcurrentHammer(t *testing.T) {
	golden, train, test := trainTestMLP(51)
	pol := PolicyFull()
	pol.Deadline = 50e-3
	pol.CanaryEvery = 5e-3
	pol.RetryBackoff = 0.1e-3

	var reps []*Replica
	for r := 0; r < 3; r++ {
		plan := faults.Plan{ReadUpset: 0.002, UpsetMag: 1.5}
		if r == 0 {
			// Lemon replica: drift hard enough that the watchdog must pull
			// it and reprogram mid-run.
			plan.DriftBurstEvery = 10
			plan.DriftBurstDt = 300
		}
		eng := faults.NewEngine(plan, rngutil.New(uint64(600+r)))
		pipe := NewMLPPipeline(golden, train.X[:8], DefaultMLPPipelineConfig(), eng.Attach,
			rngutil.New(uint64(700+r)))
		reps = append(reps, NewReplica(r, pipe, pol))
	}
	svc := NewService(pol, reps, func(x tensor.Vector) tensor.Vector {
		return golden.Forward(x).Clone()
	}, 4)

	var ok, failed atomic.Int64
	var tally outcomes
	var wg sync.WaitGroup
	deadline := time.Now().Add(1500 * time.Millisecond)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				y, err := svc.Do(test.X[(g*17+i)%len(test.X)])
				tally.add(err)
				if err != nil {
					failed.Add(1)
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if len(y) == 0 {
					t.Error("Do returned empty vector without error")
					return
				}
				ok.Add(1)
			}
		}(g)
	}
	wg.Wait()
	svc.Close()

	c := svc.Counters()
	if ok.Load() == 0 {
		t.Fatalf("no request succeeded: %+v", c)
	}
	if c.Recals == 0 {
		t.Fatalf("watchdog never recalibrated the drifting replica: %+v", c)
	}
	if ok.Load()+failed.Load() == 0 || c.Completed == 0 {
		t.Fatalf("inconsistent accounting: ok=%d failed=%d counters=%+v",
			ok.Load(), failed.Load(), c)
	}
	tally.check(t, svc)
	// The service must reject new work after Close rather than hang.
	if _, err := svc.Do(test.X[0]); err == nil {
		t.Fatal("Do after Close must fail")
	}
}

// TestServiceCloseUnblocksQueued verifies shutdown drains queued requests
// with ErrClosed instead of leaking blocked callers.
func TestServiceCloseUnblocksQueued(t *testing.T) {
	golden, train, test := trainTestMLP(61)
	pol := PolicyNone()
	pol.Deadline = 1.0
	pipe := NewMLPPipeline(golden, train.X[:4], DefaultMLPPipelineConfig(), nil, rngutil.New(3))
	svc := NewService(pol, []*Replica{NewReplica(0, pipe, pol)}, nil, 2)

	var tally outcomes
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := svc.Do(test.X[(g+i)%len(test.X)])
				tally.add(err)
				if err == ErrClosed {
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	svc.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("callers still blocked after Close")
	}
	tally.check(t, svc)
}

// outcomes tallies what Do returned to its callers, one count per
// disposition.
type outcomes struct {
	mu                                         sync.Mutex
	served, shed, expired, unavailable, closed int
}

func (o *outcomes) add(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch err {
	case nil:
		o.served++
	case ErrShed:
		o.shed++
	case ErrDeadline:
		o.expired++
	case ErrUnavailable:
		o.unavailable++
	case ErrClosed:
		o.closed++
	default:
		panic(err)
	}
}

// check is the no-request-lost-or-double-served invariant of the live
// driver: after Close, the service's counters equal the callers' tally
// exactly, and the core's accounting balances.
func (o *outcomes) check(t *testing.T, svc *Service) {
	t.Helper()
	c := svc.Counters()
	o.mu.Lock()
	want := [5]int{o.served, o.shed, o.expired, o.unavailable, o.closed}
	o.mu.Unlock()
	got := [5]int{c.Completed, c.Shed, c.Expired, c.Unavailable, c.Closed}
	if got != want {
		t.Fatalf("service completed/shed/expired/unavailable/closed %v differ from the callers' tally %v", got, want)
	}
	if err := c.Check(); err != nil {
		t.Fatalf("live accounting does not balance: %v", err)
	}
}
