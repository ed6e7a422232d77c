package memsys

import (
	"testing"
	"testing/quick"

	"repro/internal/rngutil"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(1024, 2, 64) // 8 sets
	if c.Sets != 8 {
		t.Fatalf("sets = %d", c.Sets)
	}
	if c.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0) {
		t.Fatal("repeat access must hit")
	}
	if !c.Access(63) {
		t.Fatal("same-line access must hit")
	}
	if c.Access(64) {
		t.Fatal("next line must miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats wrong: %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2*64, 2, 64) // 1 set, 2 ways
	c.Access(0)                // A
	c.Access(64)               // B
	c.Access(0)                // hit A, making B the LRU
	c.Access(128)              // C evicts B
	if !c.Access(0) {
		t.Fatal("A should survive")
	}
	if c.Access(64) {
		t.Fatal("B should have been evicted")
	}
	if c.Stats.Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestCacheParamValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCache(0, 1, 64) },
		func() { NewCache(100, 2, 64) },  // not divisible
		func() { NewCache(3*64, 1, 64) }, // 3 sets: not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: hit rate always lies in [0,1] and hits+misses == accesses.
func TestCacheStatsInvariant(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		c := NewCache(512, 2, 32)
		rng := rngutil.New(uint64(seed))
		for i := 0; i < int(n); i++ {
			c.Access(uint64(rng.Intn(4096)))
		}
		s := c.Stats
		if s.Hits+s.Misses != s.Accesses {
			return false
		}
		hr := s.HitRate()
		return hr >= 0 && hr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	// A working set that fits must converge to ~100 % hits; one that
	// thrashes a direct-mapped-style pattern must not.
	c := NewCache(4096, 4, 64)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 4096; a += 64 {
			c.Access(a)
		}
	}
	if hr := c.Stats.HitRate(); hr < 0.7 {
		t.Fatalf("resident working set hit rate %v too low", hr)
	}
	c = NewCache(4096, 4, 64)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 1<<20; a += 64 {
			c.Access(a)
		}
	}
	if hr := c.Stats.HitRate(); hr > 0.01 {
		t.Fatalf("streaming working set hit rate %v should be ~0", hr)
	}
}
