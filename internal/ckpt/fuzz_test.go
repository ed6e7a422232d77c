package ckpt

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// The fuzz targets hold the byte-level decoders to two properties: every
// input is decoded or rejected with an error, never a panic, and whatever
// decodes round-trips exactly. The seed corpora are a valid encoding and
// the truncations and byte flips TestTruncationDetectedAtEveryOffset and
// TestBitFlipDetectedEverywhere apply to whole files.

// corruptions returns raw, prefixes of raw at about 48 offsets, and copies
// with one byte flipped at about 48 offsets.
func corruptions(raw []byte) [][]byte {
	out := [][]byte{raw}
	step := max(1, len(raw)/48)
	for off := 0; off < len(raw); off += step {
		out = append(out, raw[:off])
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x5a
		out = append(out, mut)
	}
	return out
}

// canonical is st's encoding with Extra left out, since gob writes map
// entries in iteration order; sameExtra compares that map on its own.
func canonical(t *testing.T, st *TrainingState) []byte {
	t.Helper()
	c := *st
	c.Extra = nil
	b, err := encode(&c)
	if err != nil {
		t.Fatalf("re-encoding a decoded state: %v", err)
	}
	return b
}

func sameExtra(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}

func FuzzDecode(f *testing.F) {
	payload, err := encode(arbitraryState(f, 7))
	if err != nil {
		f.Fatal(err)
	}
	for _, in := range corruptions(payload) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decode(data)
		if err != nil {
			return
		}
		b1 := canonical(t, st)
		enc, err := encode(st)
		if err != nil {
			t.Fatalf("re-encoding a decoded state: %v", err)
		}
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("decoding a re-encoded state: %v", err)
		}
		if !bytes.Equal(b1, canonical(t, again)) || !sameExtra(st.Extra, again.Extra) {
			t.Fatal("decoded state does not round-trip exactly")
		}
	})
}

func sameRecords(a, b []WalRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Type != y.Type || x.Epoch != y.Epoch || x.Pulses != y.Pulses || x.File != y.File ||
			math.Float64bits(x.Loss) != math.Float64bits(y.Loss) {
			return false
		}
	}
	return true
}

// FuzzReadWAL fuzzes readWAL's parser on the bytes of a log file.
func FuzzReadWAL(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := s.AppendStep(e, 1/float64(e+1), int64(1000*(e+1))); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := s.Save(arbitraryState(f, 11)); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(s.walPath())
	if err != nil {
		f.Fatal(err)
	}
	for _, in := range corruptions(raw) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := parseWAL(data)
		// The intact records, framed again into a fresh log, parse back
		// exactly and without a torn tail.
		var log []byte
		for _, rec := range recs {
			frame, err := walFrame(rec)
			if err != nil {
				t.Fatalf("re-framing a parsed record: %v", err)
			}
			log = append(log, frame...)
		}
		again, torn := parseWAL(log)
		if torn || !sameRecords(recs, again) {
			t.Fatalf("records do not round-trip: torn=%v", torn)
		}
	})
}
