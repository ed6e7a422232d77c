// Package cam simulates ternary content-addressable memories (TCAMs) — the
// §IV hardware that replaces DRAM-plus-GPU distance computation in
// memory-augmented networks with a single parallel in-memory search. It
// provides the functional array (ternary storage, exact-match and
// best-match search with match-line degree-of-match sensing), the
// binary-reflected Gray code the few-shot TCAM keys use, and
// cell-technology cost models (16T CMOS vs 2-FeFET, paper ref. [9]) for
// the energy/latency tables.
package cam

import (
	"fmt"
	"math/bits"
)

// Trit is a ternary cell value.
type Trit uint8

// Ternary cell states. X is "don't care": it matches both 0 and 1 whether
// stored or queried.
const (
	Zero Trit = iota
	One
	X
)

// String implements fmt.Stringer.
func (t Trit) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "x"
	}
	return "?"
}

// Row is one stored TCAM word.
type Row []Trit

// RowFromUint builds a width-bit row from the low bits of v (bit 0 first).
func RowFromUint(v uint64, width int) Row {
	r := make(Row, width)
	for i := 0; i < width; i++ {
		if v&(1<<uint(i)) != 0 {
			r[i] = One
		}
	}
	return r
}

// key is a query packed once for a whole-array search: per whole word,
// the query word and the bit-7 mask of its cells that are not X.
type key struct {
	query Row
	words []uint64 // query word, not-X mask, next query word, ...
}

func newKey(q Row) key {
	n := len(q) &^ 7
	words := make([]uint64, 0, n/4)
	for i := 0; i < n; i += 8 {
		qw := word(q, i)
		words = append(words, qw, nonzero(qw^xWord))
	}
	return key{query: q, words: words}
}

// mismatches counts cells where the stored trit conflicts with the query
// trit; an X on either side never conflicts. This is the quantity the
// match line physically exposes: each conflicting cell opens one pull-down
// path.
//
// The count runs eight cells per machine word, the simulator's stand-in
// for the parallel match line: a cell conflicts iff s≠q, s≠X and q≠X,
// each a per-byte nonzero test on an XOR (see nonzero), so a word's
// conflict count is the popcount of the three masks ANDed. That is the
// per-cell rule for every byte value, in {0, 1, X} or not; the last
// width%8 cells take the per-cell loop.
func (k key) mismatches(stored Row) int {
	if len(stored) != len(k.query) {
		panic(fmt.Sprintf("cam: width mismatch %d vs %d", len(stored), len(k.query)))
	}
	words := k.words
	m := 0
	for w := 0; w+1 < len(words); w += 2 {
		s := word(stored, 4*w)
		m += bits.OnesCount64(nonzero(s^words[w]) & nonzero(s^xWord) & words[w+1])
	}
	n := 4 * len(words)
	for i, s := range stored[n:] {
		if q := k.query[n+i]; s != X && q != X && s != q {
			m++
		}
	}
	return m
}

const (
	low7  = 0x7f7f7f7f7f7f7f7f
	xWord = 0x0202020202020202 // X in every byte
)

// nonzero sets bit 7 of each byte of v that is nonzero and clears every
// other bit: adding 0x7f to a byte's low seven bits carries into bit 7
// iff they are not all zero, the OR adds the byte's own bit 7, and no sum
// carries past its byte.
func nonzero(v uint64) uint64 { return ((v & low7) + low7 | v) &^ low7 }

// word packs cells i..i+7 of r, cell i in the low byte. The compiler
// combines the eight byte loads into one 64-bit load.
func word(r Row, i int) uint64 {
	w := r[i : i+8 : i+8]
	return uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
		uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
}

// TCAM is a functional ternary CAM array of uniform width.
type TCAM struct {
	Width int
	Rows  []Row

	// Searches counts search operations issued, for cost accounting.
	Searches int64
}

// New returns an empty TCAM with the given word width.
func New(width int) *TCAM {
	if width <= 0 {
		panic("cam: width must be positive")
	}
	return &TCAM{Width: width}
}

// Store appends a row and returns its index. It panics on width mismatch.
func (t *TCAM) Store(r Row) int {
	if len(r) != t.Width {
		panic(fmt.Sprintf("cam: row width %d, array width %d", len(r), t.Width))
	}
	t.Rows = append(t.Rows, r)
	return len(t.Rows) - 1
}

// Len reports the number of stored rows.
func (t *TCAM) Len() int { return len(t.Rows) }

// SearchExact returns the indices of all rows that match the query with
// zero conflicting cells — the classical single-cycle TCAM operation.
func (t *TCAM) SearchExact(query Row) []int {
	t.Searches++
	k := newKey(query)
	var out []int
	for i, r := range t.Rows {
		if k.mismatches(r) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// BestMatch returns the row with the fewest conflicting cells and that
// count, implementing degree-of-match sensing: the match line of the best
// row discharges slowest (§IV-B.2). It returns (-1, -1) for an empty array.
func (t *TCAM) BestMatch(query Row) (idx, mismatches int) {
	t.Searches++
	k := newKey(query)
	idx, mismatches = -1, -1
	for i, r := range t.Rows {
		m := k.mismatches(r)
		if idx == -1 || m < mismatches {
			idx, mismatches = i, m
		}
	}
	return idx, mismatches
}

// MatchCounts returns the mismatch count of every row for the query in a
// single search — the full degree-of-match readout used when several
// near-matches must be ranked.
func (t *TCAM) MatchCounts(query Row) []int {
	t.Searches++
	k := newKey(query)
	out := make([]int, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = k.mismatches(r)
	}
	return out
}

// KNearestBinary returns the indices of the k best-matching rows using
// binary match comparators only (§IV-B.1): the array cannot rank matches in
// one shot, so one search is issued per retrieved neighbor (each found row
// is masked and the search repeated), charging k match-line cycles. k < 0
// retrieves nothing, like k = 0.
func (t *TCAM) KNearestBinary(query Row, k int) []int {
	k = max(0, min(k, len(t.Rows)))
	key := newKey(query)
	taken := make([]bool, len(t.Rows))
	out := make([]int, 0, k)
	for len(out) < k {
		t.Searches++
		best, bestM := -1, -1
		for i, r := range t.Rows {
			if taken[i] {
				continue
			}
			if m := key.mismatches(r); best == -1 || m < bestM {
				best, bestM = i, m
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}

// KNearestDegree returns the same k best rows using a single
// degree-of-match search: the match-line discharge rates expose every row's
// mismatch count at once (§IV-B.2), so only one search is charged. k < 0
// retrieves nothing, like k = 0.
func (t *TCAM) KNearestDegree(query Row, k int) []int {
	counts := t.MatchCounts(query) // one search
	k = max(0, min(k, len(counts)))
	out := make([]int, 0, k)
	taken := make([]bool, len(counts))
	for len(out) < k {
		best, bestM := -1, -1
		for i, m := range counts {
			if taken[i] {
				continue
			}
			if best == -1 || m < bestM {
				best, bestM = i, m
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}
