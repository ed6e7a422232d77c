package rngutil

import (
	"fmt"
	"testing"
)

// The AVX2 draw leaf against the scalar loop it shadows, both called
// directly so that both run on every amd64 host with AVX2.

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("host has no AVX2")
	}
}

// thresholds spans the verdicts: none, rare, typical, every kept draw, and
// k = 2⁶³ (p ≥ 1), which the leaf clamps to retryAt.
var thresholds = []uint64{0, 1 << 20, bernoulliThreshold(0.3), retryAt - 1, retryAt, 1 << 63}

// plantAt makes draw r (counting from the generator's next step) yield the
// raw value x, by writing the two ring slots that step adds.
func plantAt(g *alfg, r int, x int64) {
	tap := ((g.tap-1-r)%rngLen + rngLen) % rngLen
	feed := ((g.feed-1-r)%rngLen + rngLen) % rngLen
	g.vec[tap] = 0
	g.vec[feed] = x
}

// plants are raw values at and around the retry boundary: the first two
// are retried, the last is the largest kept draw.
var plants = []int64{retryAt, -1, retryAt - 1}

func sameGen(t *testing.T, what string, got, want *alfg) {
	t.Helper()
	if got.tap != want.tap || got.feed != want.feed || got.n != want.n {
		t.Fatalf("%s: tap/feed/n = %d/%d/%d, want %d/%d/%d", what,
			got.tap, got.feed, got.n, want.tap, want.feed, want.n)
	}
	if got.vec != want.vec {
		t.Fatalf("%s: ring contents differ", what)
	}
}

// TestDrawLeafStopsAtRetry calls the leaf directly with a draw to retry
// planted at every slot of a call of 61 to 64 draws: it must commit
// exactly the groups before the planted one, with the scalar loop's bits
// and ring.
func TestDrawLeafStopsAtRetry(t *testing.T) {
	requireAVX2(t)
	base := New(15).gen
	for i := 0; i < 100; i++ {
		base.Uint64()
	}
	for _, k := range thresholds {
		for n := 61; n <= 64; n++ {
			for r := -1; r < n; r++ {
				for _, x := range plants {
					leaf, twin := *base, *base
					wantDrawn := n
					if r >= 0 {
						plantAt(&leaf, r, x)
						plantAt(&twin, r, x)
						if x != retryAt-1 {
							wantDrawn = r &^ 3
						}
					}
					bits, drawn := bernoulliDrawsAVX2(&leaf.vec, leaf.tap, leaf.feed, min(k, retryAt), n)
					leaf.tap -= drawn
					leaf.feed -= drawn
					leaf.n += uint64(drawn)
					want := twin.bernoulliMask(k, wantDrawn, false)
					what := fmt.Sprintf("k=%#x n=%d retry at %d x=%#x", k, n, r, x)
					if drawn != wantDrawn || bits != want {
						t.Fatalf("%s: leaf drew %d bits %#x, want %d bits %#x", what, drawn, bits, wantDrawn, want)
					}
					sameGen(t, what, &leaf, &twin)
				}
			}
		}
	}
}

// TestBernoulliMaskGroupsMatchScalar runs whole pulse trains both ways at
// every ring alignment, so that tap and feed each come within 4 of the
// wrap, for three train lengths each, with and without a planted retry.
func TestBernoulliMaskGroupsMatchScalar(t *testing.T) {
	requireAVX2(t)
	gen := New(16).gen
	for shift := 0; shift < rngLen; shift++ {
		for j, n := range []int{shift % 65, 31, 64} {
			k := thresholds[(shift+j)%len(thresholds)]
			r := (shift+j)%(n+1) - 1 // -1: no planted retry
			x := plants[(shift+j)%len(plants)]
			vec, scalar := *gen, *gen
			if r >= 0 {
				plantAt(&vec, r, x)
				plantAt(&scalar, r, x)
			}
			got := vec.bernoulliMask(k, n, true)
			want := scalar.bernoulliMask(k, n, false)
			what := fmt.Sprintf("shift %d (tap %d feed %d) k=%#x n=%d retry at %d", shift, gen.tap, gen.feed, k, n, r)
			if got != want {
				t.Fatalf("%s: mask %#x, scalar %#x", what, got, want)
			}
			sameGen(t, what, &vec, &scalar)
		}
		gen.Uint64()
	}
}

// TestBernoulliMaskGroupsEveryLength covers every length and threshold at
// a ring position where tap and feed are both far from the wrap, and then
// lets the same two generators run on through several wraps.
func TestBernoulliMaskGroupsEveryLength(t *testing.T) {
	requireAVX2(t)
	vec, scalar := New(17).gen, New(17).gen
	for rep := 0; rep < 40; rep++ {
		for _, k := range thresholds {
			for n := 0; n <= 64; n++ {
				got := vec.bernoulliMask(k, n, true)
				want := scalar.bernoulliMask(k, n, false)
				if got != want {
					t.Fatalf("rep %d k=%#x n=%d: mask %#x, scalar %#x", rep, k, n, got, want)
				}
			}
		}
		sameGen(t, fmt.Sprintf("rep %d", rep), vec, scalar)
	}
}

func TestDrawLeafAllocFree(t *testing.T) {
	requireAVX2(t)
	g := New(3).gen
	got := testing.AllocsPerRun(100, func() {
		g.Seed(3)
		bernoulliDrawsAVX2(&g.vec, g.tap, g.feed, 1<<62, 63)
	})
	if got > 0 {
		t.Fatalf("bernoulliDrawsAVX2: %.1f allocs/op, want 0", got)
	}
}

// BenchmarkDrawLeaf times a 31-slot train (the crossbar's pulse length)
// and a full 64-slot one through the leaf and through the scalar loop.
func BenchmarkDrawLeaf(b *testing.B) {
	k := bernoulliThreshold(0.3)
	for _, n := range []int{31, 64} {
		for _, leaf := range []bool{true, false} {
			name := "go"
			if leaf {
				name = "avx2"
			}
			b.Run(fmt.Sprintf("%s/%d", name, n), func(b *testing.B) {
				if leaf {
					requireAVX2(b)
				}
				g := New(1).gen
				for i := 0; i < b.N; i++ {
					sinkMask = g.bernoulliMask(k, n, leaf)
				}
			})
		}
	}
}
