package rngutil

import "repro/internal/cpufeat"

// useAVX2 selects the assembly draw leaf once, at start-up.
var useAVX2 = cpufeat.HasAVX2()

// leafDraws takes up to n draws through bernoulliDrawsAVX2 and returns
// their mask bits (draw i at bit i) and the number of draws taken. Every
// group of four reads four ring slots below tap and below feed, so the
// draws stop at whole groups where the window of the last one would cross
// the wrap.
func leafDraws(vec *[rngLen]int64, tap, feed int, k uint64, n int) (bits uint64, drawn int) {
	if lim := min(tap, feed); (n+3)&^3 > lim {
		n = lim &^ 3
	}
	if n == 0 {
		return 0, 0
	}
	return bernoulliDrawsAVX2(vec, tap, feed, min(k, retryAt), n)
}

// bernoulliDrawsAVX2 runs n ≤ 64 generator steps four at a time, each
// group one VPADDQ over vec[feed-4:feed] and vec[tap-4:tap], the two index
// runs four steps visit (the ring runs downward); a last group of n mod 4
// commits only the lanes of its draws. A lane's verdict is a signed
// compare against k, which must not exceed retryAt: every committed draw
// lies below retryAt, where the clamp leaves the verdict unchanged. The
// leaf stops before committing a group with a draw to retry, and returns
// the bits and draw count of the groups it committed. tap and feed must be
// at least n rounded up to a multiple of 4. No group reads a slot an
// earlier group of the call wrote: the ring's two indices are 273 and 334
// slots apart, more than 64.
//
//go:noescape
func bernoulliDrawsAVX2(vec *[rngLen]int64, tap, feed int, k uint64, n int) (bits uint64, drawn int)
