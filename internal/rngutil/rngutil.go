// Package rngutil provides deterministic, splittable random-number streams.
//
// Every experiment in this repository is seeded, and sub-components derive
// independent streams from a parent seed so that changing the amount of
// randomness consumed by one component does not perturb another. This is the
// property that makes the benchmark tables reproducible run-to-run.
//
// Streams are also *checkpointable*: every Source counts the values it has
// drawn, so its exact position is the pair (seed, draws). State captures it
// and FromState rebuilds a stream at the identical position by fast-forward,
// which is what lets a crash-recovered training run continue bit-identically
// with an uninterrupted one (package ckpt).
//
// The generator is alfg, a port of the Go standard library's math/rand
// source: the additive lagged Fibonacci generator of D. P. Mitchell and
// J. A. Reeds with its seeding table, copied under Go's BSD license (see
// alfg.go). The port exists so the per-slot draws of stochastic pulse
// trains reach the generator as concrete calls rather than through the
// rand.Source interface; its value stream is the standard library's, bit
// for bit, which TestAlfgMatchesStdlib pins on every toolchain.
package rngutil

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream with the ability to derive
// independent child streams by name.
//
// The embedded *rand.Rand, built on the same generator, supplies the
// derived draws (NormFloat64, Intn, Perm, Shuffle, rand.NewZipf); Float64
// and BernoulliMask, the draws on the crossbar update path, call the
// generator directly.
type Source struct {
	seed uint64
	gen  *alfg
	*rand.Rand
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	gen := new(alfg)
	gen.Seed(int64(seed))
	return &Source{seed: seed, gen: gen, Rand: rand.New(gen)}
}

// State is the exact position of a Source: the seed it was created with and
// the number of values drawn since. It is plain data, safe to serialize.
type State struct {
	Seed  uint64
	Draws uint64
}

// State captures the stream's current position.
func (s *Source) State() State { return State{Seed: s.seed, Draws: s.gen.n} }

// FromState rebuilds a Source at exactly the captured position: the stream
// it returns produces the same values the original would have produced next.
// Restoring is O(Draws) — the generator is replayed — but each step is a few
// nanoseconds, so even multi-epoch training positions restore in well under
// a second.
func FromState(st State) *Source {
	s := New(st.Seed)
	for s.gen.n < st.Draws {
		s.gen.Uint64()
	}
	return s
}

// Child derives an independent stream from this source's seed and a label.
// Children with distinct labels produce uncorrelated streams; the same
// (seed, label) pair always produces the same stream.
func (s *Source) Child(label string) *Source {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(s.seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return New(h.Sum64())
}

// Sub derives an independent stream keyed by integers instead of a string
// label. The derived stream depends only on (seed, keys), never on how many
// values the parent has drawn, so tile-parallel code can derive per-(op,
// tile) streams that are identical at any worker count and across
// checkpoint resume. Sub and Child occupy disjoint key spaces: a Sub stream
// never collides with a Child stream of the same parent. Sub allocates a
// fresh Source; hot paths that reuse stream objects call SubInto instead.
func (s *Source) Sub(keys ...uint64) *Source {
	return New(s.subSeed(keys...))
}

// SubInto repositions dst at the start of the stream Sub(keys...) would
// return, reusing dst's existing allocations — the alloc-free derivation
// used by per-tile buffer arenas. dst behaves exactly like a fresh
// s.Sub(keys...) afterwards (same values, same State accounting).
func (s *Source) SubInto(dst *Source, keys ...uint64) {
	dst.Reseed(s.subSeed(keys...))
}

// subSeed computes the derived seed of the integer-keyed stream space:
// FNV-1a over the parent seed and the keys, with a domain-separation tag so
// Sub(k...) cannot collide with Child(label).
func (s *Source) subSeed(keys ...uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	mix(s.seed)
	h ^= uint64('#') // domain tag: integer-keyed space
	h *= 1099511628211
	for _, k := range keys {
		mix(k)
	}
	return h
}

// Reseed repositions s at the start of the stream for seed, reusing every
// existing allocation — the alloc-free twin of New(seed). The generator
// state, draw counter, and seed all match a freshly constructed Source.
func (s *Source) Reseed(seed uint64) {
	s.seed = seed
	// Rand.Seed reseeds the generator, which zeroes its draw counter, and
	// clears the Rand's cached Read state.
	s.Rand.Seed(int64(seed))
}

// Seed reports the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Float64 returns a uniform value in [0, 1). It shadows Rand.Float64 with
// the same arithmetic, so the value stream is unchanged: Int63/2⁶³, drawn
// again in the rare case the quotient rounds up to 1.
func (s *Source) Float64() float64 {
again:
	f := float64(s.gen.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// BernoulliMask returns an n-slot Bernoulli(p) pulse train as a bitmask:
// bit i is set when the i-th draw falls below p. It consumes and returns
// exactly what n calls of Float64() < p would, retries included, with the
// generator's indices and draw count held in locals and the float compare
// replaced by its integer equivalent (see bernoulliThreshold). n must be
// in [0, 64].
func (s *Source) BernoulliMask(p float64, n int) uint64 {
	if n < 0 || n > 64 {
		panic("rngutil: BernoulliMask n out of [0, 64]")
	}
	k := bernoulliThreshold(p)
	g := s.gen
	tap, feed, draws := g.tap, g.feed, g.n
	var m uint64
	for i := 0; i < n; i++ {
	again:
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := g.vec[feed] + g.vec[tap]
		g.vec[feed] = x
		draws++
		v := uint64(x) & rngMask
		if v >= retryAt {
			goto again // Float64 would round this draw up to 1.0
		}
		if v < k {
			m |= 1 << uint(i)
		}
	}
	g.tap, g.feed, g.n = tap, feed, draws
	return m
}

// retryAt is the least Int63 value whose quotient by 2⁶³ rounds up to 1.0,
// the draws Float64 discards: the float64 neighbours below 2⁶³ are 1024
// apart, and the midpoint 2⁶³−512 ties to 2⁶³'s even mantissa.
const retryAt = 1<<63 - 512

// bernoulliThreshold returns the k for which float64(v)/2⁶³ < p holds
// exactly when v < k, over every v in [0, retryAt). Converting v to float64
// rounds monotonically, so the draws below p form a prefix and k is its
// length. Scaling p by 2⁶³ is exact, so the prefix ends where
// float64(v) reaches t = p·2⁶³.
func bernoulliThreshold(p float64) uint64 {
	t := p * (1 << 63)
	switch {
	case !(t > 0): // p ≤ 0 or NaN: no draw is below p
		return 0
	case t >= 1<<63:
		return 1 << 63
	case t <= 1<<53:
		// Below 2⁵³ every integer converts exactly, so v < t ⟺ v < ⌈t⌉.
		return uint64(math.Ceil(t))
	}
	// Above 2⁵³, t is an integer and v converts to t or to its float64
	// neighbour below, whichever is nearer; the midpoint ties to the one
	// with the even mantissa.
	below := math.Nextafter(t, 0)
	k := uint64(t) - uint64(t-below)/2
	if math.Float64bits(t)&1 != 0 {
		k++ // the midpoint rounds down to below
	}
	return k
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.NormFloat64()
}

// Uniform returns a uniformly distributed value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}
