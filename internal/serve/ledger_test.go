package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// answerCounter is a driver that only counts answers: the guard tests call
// the core's complete and fail directly, so no other action runs.
type answerCounter struct{ answers int }

func (d *answerCounter) infer(float64, *Replica, []*attempt) {}
func (d *answerCounter) fallback(float64, *attempt)          {}
func (d *answerCounter) timer(float64, func(float64))        {}
func (d *answerCounter) canary(float64, *Replica)            {}
func (d *answerCounter) recal(float64, *Replica)             {}
func (d *answerCounter) answer(float64, *request, tensor.Vector, error) {
	d.answers++
}

// wantOneViolation fails t unless m counts exactly one refused second
// disposition and Check reports it.
func wantOneViolation(t *testing.T, m Metrics) {
	t.Helper()
	if m.AccountingViolations != 1 {
		t.Fatalf("AccountingViolations = %d, want 1", m.AccountingViolations)
	}
	err := m.Check()
	if err == nil || !strings.Contains(err.Error(), "1 requests reached two terminal dispositions") {
		t.Fatalf("Check() = %v, want it to name one violation", err)
	}
}

// TestCoreRefusesSecondDisposition drives two terminal dispositions into
// the dispatch core for one request. The first is counted and answered;
// the second is refused, never reaches the driver, and fails Check.
func TestCoreRefusesSecondDisposition(t *testing.T) {
	complete := func(c *core, req *request) { c.complete(1, req, oneHot(0)) }
	expire := func(c *core, req *request) { c.fail(1, req, ErrDeadline) }
	for _, tc := range []struct {
		name          string
		first, second func(c *core, req *request)
		completed     int
	}{
		{"complete-then-fail", complete, expire, 1},
		{"complete-twice", complete, complete, 1},
		{"fail-then-complete", expire, complete, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := &answerCounter{}
			c := newCore(PolicyNone(), nil, d, false)
			c.keepLatencies = true
			req := &request{want: 0, deadline: 5}
			c.m.Offered++
			tc.first(c, req)
			tc.second(c, req)
			if d.answers != 1 {
				t.Fatalf("answer ran %d times, want 1", d.answers)
			}
			if c.m.Completed != tc.completed || c.m.Completed+c.m.Expired != 1 || len(c.m.latencies) != tc.completed {
				t.Fatalf("second disposition was counted: %+v", c.m)
			}
			wantOneViolation(t, c.m)
		})
	}
}

// TestServiceSecondDispositionDoesNotBlock drives a double disposition
// through the live Service on a Manual clock. The second answer would
// send again on the request's 1-slot reply channel while the service
// holds its lock, and hang it for good; the guard must refuse it instead.
func TestServiceSecondDispositionDoesNotBlock(t *testing.T) {
	pol := PolicyNone()
	sc := &script{fail: map[int]int{}, tries: map[int]int{}, badFrom: []int{1}, canaries: make([]int, 1)}
	svc := NewService(pol, []*Replica{NewReplica(0, &scriptPipe{s: sc}, pol)}, nil, 1)
	defer svc.Close()
	svc.SetClock(obs.NewManual(time.Unix(0, 0)))

	// The request is admitted as Do admits it, but nothing reads its reply
	// until both dispositions have run.
	req := &request{x: tensor.Vector{0}, want: -1, reply: make(chan result, 1)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.mu.Lock()
		defer svc.mu.Unlock()
		svc.pending[req] = struct{}{}
		now := svc.now()
		svc.core.arrive(now, req)
		svc.core.complete(now, req, oneHot(0))
		svc.core.fail(now, req, ErrDeadline)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		<-req.reply // unblock the second send so the service can close
		<-done
		t.Fatal("the second disposition blocked the service on the reply channel")
	}
	if r := <-req.reply; r.err != nil || r.y.ArgMax() != 0 {
		t.Fatalf("first answer = %+v, want class 0", r)
	}
	select {
	case r := <-req.reply:
		t.Fatalf("request answered twice; second answer %+v", r)
	default:
	}
	c := svc.Counters()
	if c.Completed != 1 || c.Expired != 0 {
		t.Fatalf("Completed/Expired = %d/%d, want 1/0", c.Completed, c.Expired)
	}
	wantOneViolation(t, c)
}
