package obs

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time so the real serving runtime reads every
// deadline-relevant timestamp — and waits out every backoff, hedge delay,
// and deadline — from one injectable source: production uses System, tests
// use a Manual clock whose time (and therefore every After) advances
// virtually, and the two paths share the simulator's "one clock per run"
// discipline.
type Clock interface {
	Now() time.Time
	// After returns a channel that delivers the clock's reading once it has
	// advanced by d. Unlike time.NewTimer there is no Stop: abandoned
	// channels are buffered and simply fire into the void, which keeps the
	// Manual implementation free of timer bookkeeping.
	After(d time.Duration) <-chan time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// System is the wall clock.
var System Clock = systemClock{}

// waiter is one pending Manual.After registration.
type waiter struct {
	at time.Time
	ch chan time.Time
}

// Manual is a hand-advanced clock for tests: time moves only when the test
// says so, making deadline checks exact instead of racy. After fires only
// once Advance (or Set) moves the clock past its due time, so code that
// backs off or arms hedge/deadline timers through the Clock burns no
// wall-clock time under test.
type Manual struct {
	mu      sync.Mutex
	t       time.Time
	waiters []waiter
}

// NewManual builds a manual clock starting at start.
func NewManual(start time.Time) *Manual { return &Manual{t: start} }

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// After implements Clock: the returned channel fires (with the clock
// reading at fire time) once the clock reaches now+d. A non-positive d
// fires immediately.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	m.mu.Lock()
	due := m.t.Add(d)
	if d <= 0 {
		ch <- m.t
	} else {
		m.waiters = append(m.waiters, waiter{at: due, ch: ch})
	}
	m.mu.Unlock()
	return ch
}

// Advance moves the clock forward by d, firing every After whose due
// time has been reached.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.t = m.t.Add(d)
	m.fireLocked()
	m.mu.Unlock()
}

// Set jumps the clock to t (firing due waiters when t is in the future).
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	m.t = t
	m.fireLocked()
	m.mu.Unlock()
}

// fireLocked delivers to every waiter due at or before the current time, in
// due-time order (stable for waiters registered at the same instant).
func (m *Manual) fireLocked() {
	if len(m.waiters) == 0 {
		return
	}
	sort.SliceStable(m.waiters, func(i, j int) bool { return m.waiters[i].at.Before(m.waiters[j].at) })
	n := 0
	for _, w := range m.waiters {
		if !w.at.After(m.t) {
			w.ch <- m.t
		} else {
			m.waiters[n] = w
			n++
		}
	}
	m.waiters = m.waiters[:n]
}
