package serve

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// stepClock is a Manual clock that records the due time of every timer
// armed on it, so a test can step virtual time from one pending timer to
// the next and tell when the service has gone quiet (see settle).
type stepClock struct {
	*obs.Manual
	mu  sync.Mutex
	due []time.Time
}

func newStepClock() *stepClock { return &stepClock{Manual: obs.NewManual(time.Unix(0, 0))} }

func (c *stepClock) After(d time.Duration) <-chan time.Time {
	now := c.Now()
	ch := c.Manual.After(d)
	if d > 0 {
		c.mu.Lock()
		c.due = append(c.due, now.Add(d))
		c.mu.Unlock()
	}
	return ch
}

// pending reports how many timers have not fired yet, and the earliest.
func (c *stepClock) pending() (n int, next time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.Now()
	keep := c.due[:0]
	for _, d := range c.due {
		if d.After(now) {
			keep = append(keep, d)
			if n == 0 || d.Before(next) {
				next = d
			}
			n++
		}
	}
	c.due = keep
	return n, next
}

// settle waits until every goroutine the service started is parked on a
// timer of clk: nothing more happens until the test moves the clock. It
// needs every service operation to either finish or wait on clk (no
// operation may block on another's lock).
func settle(t *testing.T, svc *Service, clk *stepClock) {
	t.Helper()
	waitUntil(t, func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		n, _ := clk.pending()
		return svc.running == n
	})
}

// script drives the scripted pipelines of TestLiveMatchesSim. Request i
// carries x = [i] and wants class i mod 4. Its first fail[i] attempts, on
// whichever replica, fail their verify read and answer the wrong class;
// replica r's canary reads clean until its badFrom[r]-th call. sleep, when
// set, spends an inference's service time on the live clock.
type script struct {
	mu       sync.Mutex
	fail     map[int]int
	tries    map[int]int
	badFrom  []int
	canaries []int
	sleep    func()
}

func oneHot(class int) tensor.Vector {
	y := make(tensor.Vector, 4)
	y[class%4] = 1
	return y
}

type scriptPipe struct {
	s  *script
	id int
}

func (p *scriptPipe) Infer(x tensor.Vector, verify bool) (tensor.Vector, bool) {
	s, id := p.s, int(x[0])
	s.mu.Lock()
	ok := s.tries[id] >= s.fail[id]
	s.tries[id]++
	s.mu.Unlock()
	if s.sleep != nil {
		s.sleep()
	}
	if !ok {
		return oneHot(id + 1), false
	}
	return oneHot(id), true
}

func (p *scriptPipe) CanaryDivergence() float64 {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	p.s.canaries[p.id]++
	if p.s.canaries[p.id] >= p.s.badFrom[p.id] {
		return 1
	}
	return 0
}

func (p *scriptPipe) Recalibrate() RecalStats { return RecalStats{} }

// TestLiveMatchesSim runs one scripted workload through the simulator and
// through the live Service on a stepped Manual clock, and requires the
// same outcome for every request and the same counters. Service times are
// exact (no jitter): 2s per inference and per fallback, with canaries and
// recalibrations instantaneous. The script, in seconds:
//
//	r0 @0.5   verified on the first attempt
//	r1 @1     verify fails, retry at 3.5, verified
//	r2 @4     verify fails twice: the suspect read is served
//	          R0's canary at 10 reads clean; R1's at 20 quarantines it,
//	          and both recalibrations fail: R1 is abandoned
//	r3 @29    served by R0 alone
//	r4 @29.5  queued behind r3
//	r5 @29.75 shed: the queue (capacity 1) is full
//	          R0's canary at 30 quarantines and abandons it, so r4 expires
//	          in the queue
//	r6 @33    no replica in rotation: served by the digital fallback
func TestLiveMatchesSim(t *testing.T) {
	pol := PolicyFull()
	pol.Hedge = false
	pol.MaxAttempts = 2
	pol.RetryBackoff = 0.5
	pol.Deadline = 5
	pol.QueueCap = 1
	pol.CanaryEvery = 20
	pol.RecalMaxRetries = 1
	lat := LatencyModel{Base: 2, VerifyMult: 1, DigitalMult: 1}
	arrivals := []float64{0.5, 1, 4, 29, 29.5, 29.75, 33}
	newScript := func() *script {
		return &script{
			fail:     map[int]int{1: 1, 2: 2},
			tries:    map[int]int{},
			badFrom:  []int{2, 1},
			canaries: make([]int, 2),
		}
	}
	pool := func(s *script) []*Replica {
		return []*Replica{
			NewReplica(0, &scriptPipe{s: s, id: 0}, pol),
			NewReplica(1, &scriptPipe{s: s, id: 1}, pol),
		}
	}
	type outcome struct {
		class int    // answered class; -1 on error
		err   string // the error's text; empty when answered
	}
	record := func(y tensor.Vector, err error) outcome {
		if err != nil {
			return outcome{-1, err.Error()}
		}
		return outcome{y.ArgMax(), ""}
	}

	// The simulator, with the scripted arrivals in place of its Poisson
	// stream.
	var reqs []SimRequest
	for i := range arrivals {
		reqs = append(reqs, SimRequest{X: tensor.Vector{float64(i)}, Want: i % 4})
	}
	simOut := make([]outcome, len(arrivals))
	s := newSim(SimConfig{
		Policy: pol, Lat: lat, Duration: arrivals[len(arrivals)-1],
		Requests: reqs,
		Fallback: func(x tensor.Vector) tensor.Vector { return oneHot(int(x[0])) },
		RNG:      rngutil.New(1),
	}, pool(newScript()))
	s.arrivals = arrivals
	s.answered = func(req *request, y tensor.Vector, err error) {
		simOut[int(req.x[0])] = record(y, err)
	}
	simM := s.run()

	// The live service, stepped from one event to the next.
	clk := newStepClock()
	service := func() { <-clk.After(2 * time.Second) }
	sc := newScript()
	sc.sleep = service
	svc := NewService(pol, pool(sc), func(x tensor.Vector) tensor.Vector {
		service()
		return oneHot(int(x[0]))
	}, 1)
	defer svc.Close()
	svc.SetClock(clk)
	at := func(sec float64) time.Time { return time.Unix(0, 0).Add(time.Duration(sec * float64(time.Second))) }
	offered := func() int {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.core.m.Offered
	}
	liveOut := make([]outcome, len(arrivals))
	var wg sync.WaitGroup
	for next, step := 0, 0; ; step++ {
		if step > 200 {
			t.Fatal("live service never ran out of events")
		}
		settle(t, svc, clk)
		n, due := clk.pending()
		if next < len(arrivals) && (n == 0 || at(arrivals[next]).Before(due)) {
			clk.Set(at(arrivals[next]))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				liveOut[i] = record(svc.Do(tensor.Vector{float64(i)}))
			}(next)
			next++
			waitUntil(t, func() bool { return offered() == next })
			continue
		}
		if n == 0 {
			break
		}
		clk.Set(due)
	}
	answered := make(chan struct{})
	go func() { wg.Wait(); close(answered) }()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("a live request was never answered")
	}

	shed, expired := ErrShed.Error(), ErrDeadline.Error()
	want := []outcome{{0, ""}, {1, ""}, {3, ""}, {3, ""}, {-1, expired}, {-1, shed}, {2, ""}}
	for i := range arrivals {
		if simOut[i] != want[i] || liveOut[i] != want[i] {
			t.Errorf("r%d: sim %+v, live %+v, want %+v", i, simOut[i], liveOut[i], want[i])
		}
	}
	// The live service has no reference labels, so its Correct and Good
	// stay zero: grade its answers here instead. Every completion in the
	// script is on time, so Good equals Correct.
	svc.mu.Lock()
	liveM := svc.core.m
	svc.mu.Unlock()
	for i, o := range liveOut {
		if o.err == "" && o.class == i%4 {
			liveM.Correct++
			liveM.Good++
		}
	}
	simM.latencies = nil
	if !reflect.DeepEqual(simM, liveM) {
		t.Fatalf("counters differ:\nsim  %+v\nlive %+v", simM, liveM)
	}
	if simM.Retries != 2 || simM.SuspectServed != 1 || simM.Quarantines != 2 || simM.Fallbacks != 1 {
		t.Fatalf("script no longer exercises retry, suspect, quarantine and fallback: %+v", simM)
	}
}
