package cam

import (
	"testing"

	"repro/internal/rngutil"
)

// mismatchesRef is the per-cell conflict rule, one trit at a time: the
// oracle the word-parallel kernel is tested against.
func mismatchesRef(stored, query Row) int {
	m := 0
	for i, s := range stored {
		q := query[i]
		if s != X && q != X && s != q {
			m++
		}
	}
	return m
}

// randomRow draws width cells, either valid trits or arbitrary bytes.
func randomRow(rng *rngutil.Source, width int, anyByte bool) Row {
	r := make(Row, width)
	for i := range r {
		if anyByte {
			r[i] = Trit(rng.Intn(256))
		} else {
			r[i] = Trit(rng.Intn(3))
		}
	}
	return r
}

// TestMismatchesMatchesReference checks the word-parallel conflict count
// against the per-cell oracle at every width 0–200 (whole words and
// tails), on valid trits and on arbitrary byte values, and checks that
// BestMatch and MatchCounts rank by the oracle's counts.
func TestMismatchesMatchesReference(t *testing.T) {
	rng := rngutil.New(11)
	for width := 0; width <= 200; width++ {
		for _, anyByte := range []bool{false, true} {
			q := randomRow(rng, width, anyByte)
			k := newKey(q)
			for trial := 0; trial < 8; trial++ {
				s := randomRow(rng, width, anyByte)
				if trial == 0 {
					s = append(Row(nil), q...) // an exact match
				}
				want := mismatchesRef(s, q)
				if got := k.mismatches(s); got != want {
					t.Fatalf("width %d: key.mismatches(%v) for %v = %d, want %d", width, s, q, got, want)
				}
			}
			if width == 0 {
				continue
			}
			tc := New(width)
			for r := 0; r < 6; r++ {
				tc.Store(randomRow(rng, width, anyByte))
			}
			best, bestM := -1, -1
			for i, c := range tc.MatchCounts(q) {
				if want := mismatchesRef(tc.Rows[i], q); c != want {
					t.Fatalf("width %d: MatchCounts[%d] = %d, want %d", width, i, c, want)
				}
				if best == -1 || c < bestM {
					best, bestM = i, c
				}
			}
			if i, m := tc.BestMatch(q); i != best || m != bestM {
				t.Fatalf("width %d: BestMatch = (%d, %d), want (%d, %d)", width, i, m, best, bestM)
			}
		}
	}
}

// FuzzMismatches runs the word-parallel conflict count against the
// per-cell oracle on arbitrary byte rows; the longer input is cut to the
// shorter one's width.
func FuzzMismatches(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1}, []byte{1, 1, 0, 2})
	f.Add([]byte("0123456789abcdefg"), []byte("gfedcba9876543210"))
	f.Add(make([]byte, 16), []byte{2, 2, 2, 2, 2, 2, 2, 2, 0x80, 0x7f, 0xff, 1, 2, 3, 0x82, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := min(len(a), len(b))
		s, q := make(Row, n), make(Row, n)
		for i := 0; i < n; i++ {
			s[i], q[i] = Trit(a[i]), Trit(b[i])
		}
		want := mismatchesRef(s, q)
		if got := newKey(q).mismatches(s); got != want {
			t.Fatalf("key.mismatches(%v) for %v = %d, want %d", s, q, got, want)
		}
	})
}
