package rngutil

import (
	"math"
	"math/rand"
	"testing"
)

// TestNormalMatchesStdlib pins the ziggurat port to math/rand bit for bit:
// 10⁷ draws over 100 seeds, each against rand.New(gen).NormFloat64 on a
// twin generator, with the draw positions compared after every value. A
// value of magnitude ≥ rn can only come from the base strip's tail sampler,
// and any other value that took more than one draw went through a wedge
// test, so the draw counts show that both rare branches ran.
func TestNormalMatchesStdlib(t *testing.T) {
	const seeds, perSeed = 100, 100_000
	var tail, wedge int
	for k := 0; k < seeds; k++ {
		seed := uint64(k) * 0x9e3779b97f4a7c15
		s := New(seed)
		twin := new(alfg)
		twin.Seed(int64(seed))
		ref := rand.New(twin)
		for i := 0; i < perSeed; i++ {
			before := s.gen.n
			got, want := s.NormFloat64(), ref.NormFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, stdlib %v", seed, i, got, want)
			}
			if s.gen.n != twin.n {
				t.Fatalf("seed %d: draw %d left the stream at %d, stdlib at %d", seed, i, s.gen.n, twin.n)
			}
			switch {
			case math.Abs(got) >= rn:
				tail++
			case s.gen.n-before > 1:
				wedge++
			}
		}
		if s.gen.vec != twin.vec {
			t.Fatalf("seed %d: generator registers differ after %d draws", seed, perSeed)
		}
	}
	if tail == 0 || wedge == 0 {
		t.Fatalf("branches taken: base strip %d, wedge %d; want both > 0", tail, wedge)
	}
	t.Logf("%d draws: base strip %d, wedge %d", seeds*perSeed, tail, wedge)
}

// TestNormalMatchesStdlibOnSource: Normal, which every device, fault and
// jitter draw goes through, is mean + std·NormFloat64 on the stdlib stream.
func TestNormalMatchesStdlibOnSource(t *testing.T) {
	s, r := New(9), rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		if got, want := s.Normal(0.5, 0.25), 0.5+0.25*r.NormFloat64(); got != want {
			t.Fatalf("Normal draw %d = %v, stdlib %v", i, got, want)
		}
	}
}

func TestNormalAllocFree(t *testing.T) {
	s := New(3)
	if got := testing.AllocsPerRun(100, func() { s.Normal(0, 1) }); got > 0 {
		t.Fatalf("Normal: %.1f allocs/op, want 0", got)
	}
}

var sinkFloat float64

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sinkFloat = s.NormFloat64()
	}
}

// BenchmarkNormFloat64Stdlib is the same draw through math/rand's
// interface path, the cost the port removes.
func BenchmarkNormFloat64Stdlib(b *testing.B) {
	r := rand.New(New(1).gen)
	for i := 0; i < b.N; i++ {
		sinkFloat = r.NormFloat64()
	}
}
