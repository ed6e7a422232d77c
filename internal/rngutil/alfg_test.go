package rngutil

import (
	"math"
	"math/rand"
	"testing"
)

// stdlibSeeds covers the seed normalisation branches of rngSource.Seed:
// zero (replaced by 89482311), negatives, multiples of 2³¹−1 (reduced to
// zero), the replacement value itself, and seeds past 2³¹.
var stdlibSeeds = []int64{
	0, 1, -1, -7, 42, int32max, 2 * int32max, -int32max, 89482311,
	1 << 31, 1 << 62, math.MaxInt64, math.MinInt64,
}

const stdlibDraws = 12000

// checkAgainstStdlib draws from g and a fresh stdlib source for seed with
// the same mix of Int63 and Uint64 calls and fails on the first mismatch.
func checkAgainstStdlib(t *testing.T, what string, seed int64, g *alfg) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < stdlibDraws; i++ {
		if i%3 == 0 {
			if got, want := g.Int63(), ref.Int63(); got != want {
				t.Fatalf("%s seed %d: Int63 draw %d = %d, stdlib %d", what, seed, i, got, want)
			}
			continue
		}
		if got, want := g.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("%s seed %d: Uint64 draw %d = %d, stdlib %d", what, seed, i, got, want)
		}
	}
	if g.n != stdlibDraws {
		t.Fatalf("%s seed %d: draw count %d, want %d", what, seed, g.n, stdlibDraws)
	}
}

// TestAlfgMatchesStdlib pins the port to math/rand bit for bit: every
// pinned table, checkpoint and fingerprint in the repository depends on
// the stream being the standard library's, on every supported toolchain.
func TestAlfgMatchesStdlib(t *testing.T) {
	dirty := New(3)
	for _, seed := range stdlibSeeds {
		g := new(alfg)
		g.Seed(seed)
		checkAgainstStdlib(t, "fresh", seed, g)

		// Reseeding a drawn-from source must land on the same stream.
		dirty.Float64()
		dirty.Reseed(uint64(seed))
		checkAgainstStdlib(t, "Reseed", seed, dirty.gen)

		// Source-level draws go through the concrete Float64 and the
		// embedded Rand; both must match the stdlib Rand.
		s, r := New(uint64(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if a, b := s.Float64(), r.Float64(); a != b {
				t.Fatalf("seed %d: Float64 draw %d = %v, stdlib %v", seed, i, a, b)
			}
			if a, b := s.NormFloat64(), r.NormFloat64(); a != b {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, stdlib %v", seed, i, a, b)
			}
		}
	}

	parent := New(17)
	dst := New(5)
	for k := uint64(0); k < 4; k++ {
		dst.Uint64()
		parent.SubInto(dst, k, 9)
		checkAgainstStdlib(t, "SubInto", int64(parent.subSeed(k, 9)), dst.gen)
	}
}

// TestMulmodMatchesSchrage checks the division-free seeding step against
// math/rand's Schrage-division seedrand at the ends of its domain and over
// a strided sweep of it, one step and the three-step jump Seed chains on.
func TestMulmodMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi, lo := x/q, x%q
		x = a*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	check := func(x int32) {
		if got, want := mulmod(x, lcgA), schrage(x); got != want {
			t.Fatalf("mulmod(%d, 48271) = %d, Schrage %d", x, got, want)
		}
		if got, want := mulmod(x, lcgA3), schrage(schrage(schrage(x))); got != want {
			t.Fatalf("mulmod(%d, 48271³) = %d, three Schrage steps %d", x, got, want)
		}
	}
	for _, x := range []int32{1, 2, 44488, 44489, 89482311, int32max - 2, int32max - 1} {
		check(x)
	}
	for x := int64(1); x < int32max; x += 997 {
		check(int32(x))
	}
}

// TestBernoulliMaskMatchesFloat64Loop pins BernoulliMask to the loop it
// replaces: the same bits, the same draws, the same stream position.
func TestBernoulliMaskMatchesFloat64Loop(t *testing.T) {
	for _, p := range []float64{-1, 0, 1e-12, 0.3, 1, 2} {
		for _, n := range []int{0, 1, 31, 64} {
			a, b := New(29), New(29)
			for rep := 0; rep < 50; rep++ {
				var want uint64
				for i := 0; i < n; i++ {
					if b.Float64() < p {
						want |= 1 << uint(i)
					}
				}
				if got := a.BernoulliMask(p, n); got != want {
					t.Fatalf("p=%v n=%d rep %d: mask %#x, loop %#x", p, n, rep, got, want)
				}
				if a.State() != b.State() {
					t.Fatalf("p=%v n=%d rep %d: state %+v, loop %+v", p, n, rep, a.State(), b.State())
				}
			}
			if a.Float64() != b.Float64() {
				t.Fatalf("p=%v n=%d: streams diverged after the masks", p, n)
			}
		}
	}
}

// TestBernoulliThreshold proves the integer compare in BernoulliMask equal
// to Float64's over the draws Float64 keeps, [0, retryAt): since
// int-to-float conversion is monotone, it suffices that the last kept value
// below the threshold k has its quotient below p and k, when kept, does not,
// and that retryAt is the first value whose quotient rounds up to 1.0.
func TestBernoulliThreshold(t *testing.T) {
	quot := func(v uint64) float64 { return float64(v) / (1 << 63) }
	if quot(retryAt) != 1 || quot(retryAt-1) >= 1 {
		t.Fatalf("retryAt %d is not the first draw rounding up to 1.0", uint64(retryAt))
	}
	ps := []float64{
		math.NaN(), math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 1e-300, 1e-12,
		0x1p-10, 0x1p-10 * (1 + 0x1p-52), 0x1p-11 * (2 - 0x1p-52), 0.3, 0.5, 1 - 0x1p-53,
		1, 1 + 0x1p-52, 2, math.Inf(1),
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		// Uniform p, p spanning the exponent range, and p on the quotient
		// grid and its float neighbours, where ties are decided.
		ps = append(ps, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(70)))
		q := quot(uint64(r.Int63()))
		ps = append(ps, q, math.Nextafter(q, 0), math.Nextafter(q, 2))
	}
	for _, p := range ps {
		k := bernoulliThreshold(p)
		if k > 1<<63 {
			t.Fatalf("p=%v: threshold %d beyond 2^63", p, k)
		}
		if last := min(k, retryAt) - 1; k > 0 && !(quot(last) < p) {
			t.Fatalf("p=%v: draw %d is below the threshold but its quotient %v is not below p", p, last, quot(last))
		}
		if k < retryAt && quot(k) < p {
			t.Fatalf("p=%v: draw %d is at the threshold but its quotient %v is below p", p, k, quot(k))
		}
	}
}

// plantOne sets s's generator so its next raw value is 2⁶³−1, whose
// Float64 quotient rounds up to exactly 1.0 and must be drawn again.
func plantOne(s *Source) {
	g := s.gen
	tap := (g.tap + rngLen - 1) % rngLen
	feed := (g.feed + rngLen - 1) % rngLen
	g.vec[tap] = 0
	g.vec[feed] = math.MaxInt64
}

// clone returns an independent Source at exactly s's generator state.
func clone(s *Source) *Source {
	c := New(s.seed)
	*c.gen = *s.gen
	return c
}

// TestFloat64RetriesOnOne exercises the retry on a quotient of 1.0 that
// happens about once in 2⁵³ draws, by planting such a draw: both Float64
// and BernoulliMask must skip it and count it.
func TestFloat64RetriesOnOne(t *testing.T) {
	s := New(41)
	for i := 0; i < 100; i++ {
		s.Float64()
	}
	plantOne(s)
	if got := float64(int64(clone(s).gen.Uint64()&rngMask)) / (1 << 63); got != 1 {
		t.Fatalf("planted draw gives %v, want a quotient of exactly 1", got)
	}

	after := clone(s)
	after.gen.Uint64()
	want := float64(after.gen.Int63()) / (1 << 63)

	m := clone(s)
	before := s.State().Draws
	if got := s.Float64(); got != want || got >= 1 {
		t.Fatalf("Float64 after planted 1.0 = %v, want %v", got, want)
	}
	if d := s.State().Draws - before; d != 2 {
		t.Fatalf("Float64 over a retry drew %d values, want 2", d)
	}

	loop := clone(m)
	var wantMask uint64
	for i := 0; i < 5; i++ {
		if loop.Float64() < 0.5 {
			wantMask |= 1 << uint(i)
		}
	}
	if got := m.BernoulliMask(0.5, 5); got != wantMask {
		t.Fatalf("BernoulliMask over a retry = %#x, loop %#x", got, wantMask)
	}
	if m.State() != loop.State() || m.State().Draws-before != 6 {
		t.Fatalf("BernoulliMask over a retry: state %+v, loop %+v, want %d draws", m.State(), loop.State(), before+6)
	}
}

// TestHotPathsAllocFree: the pulse-train draw and the per-tile reseed run
// once per update and must not allocate.
func TestHotPathsAllocFree(t *testing.T) {
	s := New(3)
	if got := testing.AllocsPerRun(100, func() { s.BernoulliMask(0.3, 31) }); got > 0 {
		t.Fatalf("BernoulliMask: %.1f allocs/op, want 0", got)
	}
	seed := uint64(0)
	if got := testing.AllocsPerRun(100, func() { seed++; s.Reseed(seed) }); got > 0 {
		t.Fatalf("Reseed: %.1f allocs/op, want 0", got)
	}
}

var sinkMask uint64

func BenchmarkBernoulliMask(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sinkMask = s.BernoulliMask(0.3, 31)
	}
}

// BenchmarkBernoulliMaskStdlib is the same train drawn through math/rand's
// interface path, the cost BernoulliMask removes.
func BenchmarkBernoulliMaskStdlib(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		var m uint64
		for j := 0; j < 31; j++ {
			if r.Float64() < 0.3 {
				m |= 1 << uint(j)
			}
		}
		sinkMask = m
	}
}

func BenchmarkReseed(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Reseed(uint64(i))
	}
}

// BenchmarkReseedStdlib reseeds math/rand's source, which runs the
// Schrage-division seeding step.
func BenchmarkReseedStdlib(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}
