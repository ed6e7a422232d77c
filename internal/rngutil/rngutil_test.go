package rngutil

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestChildIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Child("weights")
	c2 := root.Child("noise")
	// Distinct labels should give distinct streams.
	same := 0
	for i := 0; i < 50; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("child streams look identical (%d/50 equal draws)", same)
	}
	// Same label from same seed must reproduce.
	d1 := New(7).Child("weights")
	d2 := New(7).Child("weights")
	for i := 0; i < 50; i++ {
		if d1.Float64() != d2.Float64() {
			t.Fatal("same (seed,label) must reproduce")
		}
	}
}

func TestChildDoesNotConsumeParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Child("x") // deriving a child must not advance the parent stream
	if a.Float64() != b.Float64() {
		t.Fatal("Child must not consume parent stream state")
	}
}

// TestSubKeyedStreams pins the properties tile-parallel execution relies
// on: Sub streams are reproducible from (seed, keys) alone, distinct keys
// give distinct streams, deriving consumes nothing from the parent, and the
// parent's draw position is irrelevant to what a Sub stream yields.
func TestSubKeyedStreams(t *testing.T) {
	a := New(7).Sub(3, 1)
	b := New(7).Sub(3, 1)
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed,keys) must reproduce")
		}
	}
	c1 := New(7).Sub(3, 1)
	c2 := New(7).Sub(3, 2)
	c3 := New(7).Sub(4, 1)
	same12, same13 := 0, 0
	for i := 0; i < 50; i++ {
		v1 := c1.Float64()
		if v1 == c2.Float64() {
			same12++
		}
		if v1 == c3.Float64() {
			same13++
		}
	}
	if same12 > 5 || same13 > 5 {
		t.Fatalf("Sub streams with distinct keys look identical (%d,%d /50)", same12, same13)
	}

	p := New(9)
	q := New(9)
	_ = p.Sub(1, 2) // deriving must not advance the parent
	if p.Float64() != q.Float64() {
		t.Fatal("Sub must not consume parent stream state")
	}
	// Parent position must not influence the derived stream (resume safety).
	drained := New(11)
	for i := 0; i < 123; i++ {
		drained.Float64()
	}
	if drained.Sub(5).Float64() != New(11).Sub(5).Float64() {
		t.Fatal("Sub stream must depend only on (seed, keys), not parent position")
	}
}

// TestSubChildDisjoint guards the domain separation between the string- and
// integer-keyed derivation spaces.
func TestSubChildDisjoint(t *testing.T) {
	root := New(21)
	sub := root.Sub(0)
	for _, label := range []string{"", "0", "array", "tile0"} {
		child := New(21).Child(label)
		if child.Seed() == sub.Seed() {
			t.Fatalf("Sub(0) collides with Child(%q)", label)
		}
	}
}

func TestSeed(t *testing.T) {
	if New(123).Seed() != 123 {
		t.Fatal("Seed() should report construction seed")
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 20; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) must be false")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) must be true")
		}
		if s.Bernoulli(-0.5) || !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli must clamp")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(11)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(13)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := s.Normal(2, 3)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-2) > 0.1 {
		t.Errorf("mean = %v, want ~2", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Errorf("std = %v, want ~3", std)
	}
}

// TestStateRoundTrip is the checkpointing property: a stream restored via
// FromState must continue exactly where the original left off, across every
// draw kind the repository uses (each consumes a different number of
// underlying values per call — Normal rejection-samples, Shuffle draws
// bounded ints — so this also pins the draw counting).
func TestStateRoundTrip(t *testing.T) {
	s := New(23)
	// Consume a messy mix of draws.
	perm := make([]int, 17)
	for i := 0; i < 500; i++ {
		s.Float64()
		s.Normal(0, 2)
		s.Intn(91)
		s.Bernoulli(0.37)
		if i%50 == 0 {
			s.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		}
	}
	r := FromState(s.State())
	for i := 0; i < 200; i++ {
		if a, b := s.Float64(), r.Float64(); a != b {
			t.Fatalf("draw %d: restored stream diverged (%v vs %v)", i, a, b)
		}
		if a, b := s.NormFloat64(), r.NormFloat64(); a != b {
			t.Fatalf("draw %d: restored normal diverged (%v vs %v)", i, a, b)
		}
	}
}

// TestStateOfFreshSource pins the trivial cases: zero draws restores to the
// start of the stream, and State is stable under capture-without-drawing.
func TestStateOfFreshSource(t *testing.T) {
	s := New(5)
	st := s.State()
	if st.Seed != 5 || st.Draws != 0 {
		t.Fatalf("fresh state = %+v, want {5 0}", st)
	}
	if FromState(st).Float64() != New(5).Float64() {
		t.Fatal("zero-draw restore must equal a fresh stream")
	}
}

// TestCountingDoesNotPerturbStream guards the seed-compatibility invariant:
// counting draws must leave the value sequence the standard library's, or
// every pinned table in the repository would silently shift.
func TestCountingDoesNotPerturbStream(t *testing.T) {
	for _, seed := range []uint64{1, New(1).Child("x").Seed()} {
		s, ref := New(seed), rand.NewSource(int64(seed)).(rand.Source64)
		for i := 0; i < 100; i++ {
			if s.Uint64() != ref.Uint64() {
				t.Fatalf("seed %d: draw %d differs from math/rand", seed, i)
			}
		}
		if s.State().Draws != 100 {
			t.Fatalf("seed %d: counted %d draws, want 100", seed, s.State().Draws)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(-2, 5)
		if x < -2 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

// TestSubIntoMatchesSub pins the alloc-free derivation contract: after
// SubInto, the destination behaves exactly like a fresh Sub(keys...) —
// same values, same seed, same State accounting — regardless of where the
// destination stream was positioned before.
func TestSubIntoMatchesSub(t *testing.T) {
	parent := New(31)
	dst := New(999)
	for i := 0; i < 17; i++ { // position dst mid-stream before reuse
		dst.Float64()
	}
	for _, keys := range [][]uint64{{0}, {1, 0}, {7, 42}, {1 << 40, 3}} {
		want := parent.Sub(keys...)
		parent.SubInto(dst, keys...)
		if dst.Seed() != want.Seed() {
			t.Fatalf("keys %v: SubInto seed %d, want %d", keys, dst.Seed(), want.Seed())
		}
		if dst.State() != want.State() {
			t.Fatalf("keys %v: SubInto state %+v, want %+v", keys, dst.State(), want.State())
		}
		for i := 0; i < 40; i++ {
			if dst.NormFloat64() != want.NormFloat64() || dst.Float64() != want.Float64() {
				t.Fatalf("keys %v: SubInto stream diverged from Sub at draw %d", keys, i)
			}
		}
		if dst.State() != want.State() {
			t.Fatalf("keys %v: draw accounting diverged: %+v vs %+v", keys, dst.State(), want.State())
		}
	}
}

// TestReseedMatchesNew pins Reseed as the alloc-free twin of New: values,
// seed, and checkpoint state all match a freshly constructed source, even
// when the reused source had cached normal-draw state.
func TestReseedMatchesNew(t *testing.T) {
	s := New(5)
	for i := 0; i < 9; i++ {
		s.NormFloat64() // populate cached generator state worth resetting
	}
	s.Reseed(77)
	want := New(77)
	if s.Seed() != 77 || s.State() != want.State() {
		t.Fatalf("Reseed state %+v, want %+v", s.State(), want.State())
	}
	for i := 0; i < 50; i++ {
		if s.NormFloat64() != want.NormFloat64() {
			t.Fatalf("Reseed stream diverged from New at draw %d", i)
		}
	}
}

// TestSubIntoAllocFree is the property the per-tile update arenas rely on:
// deriving a substream into an existing Source allocates nothing.
func TestSubIntoAllocFree(t *testing.T) {
	parent := New(3)
	dst := New(0)
	keys := [2]uint64{9, 4}
	if got := testing.AllocsPerRun(100, func() {
		parent.SubInto(dst, keys[0], keys[1])
		dst.Float64()
	}); got > 0 {
		t.Fatalf("SubInto: %.1f allocs/op, want 0", got)
	}
}
