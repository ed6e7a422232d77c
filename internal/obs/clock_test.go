package obs

import (
	"sync"
	"testing"
	"time"
)

// TestManualAfterFiresOnAdvance pins the virtual-timer contract: After
// channels fire exactly when the hand-advanced clock crosses their due
// time, never on wall time.
func TestManualAfterFiresOnAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewManual(start)
	early := m.After(10 * time.Millisecond)
	late := m.After(30 * time.Millisecond)

	select {
	case <-early:
		t.Fatal("After fired before any Advance")
	default:
	}

	m.Advance(10 * time.Millisecond)
	select {
	case at := <-early:
		if !at.Equal(start.Add(10 * time.Millisecond)) {
			t.Fatalf("early fired at %v, want %v", at, start.Add(10*time.Millisecond))
		}
	default:
		t.Fatal("early waiter did not fire at its due time")
	}
	select {
	case <-late:
		t.Fatal("late waiter fired ahead of its due time")
	default:
	}

	m.Advance(25 * time.Millisecond)
	select {
	case <-late:
	default:
		t.Fatal("late waiter did not fire after the clock passed it")
	}
}

// TestManualAfterImmediate pins the non-positive-duration edge: it must fire
// without any Advance (the deadline-already-passed case in serve).
func TestManualAfterImmediate(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	select {
	case <-m.After(0):
	default:
		t.Fatal("After(0) must fire immediately")
	}
	select {
	case <-m.After(-time.Second):
	default:
		t.Fatal("After(negative) must fire immediately")
	}
}

// TestManualSleepIsVirtual proves waiting on the clock consumes no wall
// time beyond scheduling: a 10-virtual-second wait completes as soon as
// the clock is advanced past it.
func TestManualSleepIsVirtual(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var wg sync.WaitGroup
	wg.Add(1)
	slept := make(chan struct{})
	go func() {
		defer wg.Done()
		<-m.After(10 * time.Second)
		close(slept)
	}()
	// Drive the clock until the sleeper wakes; wall-clock bound is generous
	// but the virtual duration (10s) would dwarf it if the wait were real.
	t0 := time.Now()
	for {
		select {
		case <-slept:
			wg.Wait()
			if el := time.Since(t0); el > 5*time.Second {
				t.Fatalf("virtual sleep took %v wall time", el)
			}
			return
		default:
			m.Advance(time.Second)
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestManualSetFiresWaiters verifies Set (jumping forward) releases due
// waiters just like Advance.
func TestManualSetFiresWaiters(t *testing.T) {
	start := time.Unix(50, 0)
	m := NewManual(start)
	ch := m.After(time.Minute)
	m.Set(start.Add(2 * time.Minute))
	select {
	case <-ch:
	default:
		t.Fatal("Set past the due time did not fire the waiter")
	}
}

// TestSystemClockAfter smoke-checks the wall-clock implementation so the
// interface extension stays covered on both paths.
func TestSystemClockAfter(t *testing.T) {
	t0 := System.Now()
	select {
	case <-System.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("System.After never fired")
	}
	if !System.Now().After(t0) {
		t.Fatal("System.After fired before wall time advanced")
	}
}
