package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestLevelsAndGrid(t *testing.T) {
	q := New(2, 1)
	if q.Levels() != 4 {
		t.Fatalf("Levels = %d", q.Levels())
	}
	want := []float64{-1, -1.0 / 3, 1.0 / 3, 1}
	for k, w := range want {
		if math.Abs(q.Value(k)-w) > 1e-12 {
			t.Fatalf("Value(%d) = %v, want %v", k, q.Value(k), w)
		}
	}
}

func TestQuantizeRoundsToNearest(t *testing.T) {
	q := New(2, 1)
	cases := map[float64]float64{
		0.0:  1.0 / 3, // midpoint ties round away from zero in the index
		0.4:  1.0 / 3,
		0.9:  1,
		-0.9: -1,
		5:    1,  // clips
		-5:   -1, // clips
	}
	for in, want := range cases {
		if got := q.Quantize(in); math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantize(%v) = %v, want %v", in, got, want)
		}
	}
}

// Property: quantization is idempotent and error-bounded for in-range input.
func TestQuantizeProperties(t *testing.T) {
	f := func(x float64, bits8 uint8) bool {
		bits := int(bits8%8) + 1
		q := New(bits, 2)
		x = math.Mod(x, 2) // keep in range
		if math.IsNaN(x) {
			return true
		}
		y := q.Quantize(x)
		// Idempotent.
		if q.Quantize(y) != y {
			return false
		}
		// Error bounded by half a step.
		return math.Abs(y-x) <= q.step()/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: codes roundtrip through Value.
func TestCodeRoundtrip(t *testing.T) {
	q := New(4, 1.5)
	for k := 0; k < q.Levels(); k++ {
		if got := q.Index(q.Value(k)); got != k {
			t.Fatalf("Index(Value(%d)) = %d", k, got)
		}
	}
}

func TestCodesVec(t *testing.T) {
	q := New(4, 1)
	v := tensor.Vector{-1, 0, 1}
	codes := q.Codes(v)
	if codes[0] != 0 || codes[2] != q.Levels()-1 {
		t.Fatalf("Codes = %v", codes)
	}
	qv := q.QuantizeVec(v)
	if qv[0] != -1 || qv[2] != 1 {
		t.Fatalf("QuantizeVec = %v", qv)
	}
	// Input must be untouched.
	if v[0] != -1 {
		t.Fatal("QuantizeVec mutated input")
	}
}

func TestMoreBitsLessError(t *testing.T) {
	data := tensor.Vector{0.13, -0.77, 0.42, 0.99, -0.31}
	var prevErr = math.Inf(1)
	for _, bits := range []int{2, 4, 8} {
		q := New(bits, 1)
		var e float64
		for _, x := range data {
			e += math.Abs(q.Quantize(x) - x)
		}
		if e >= prevErr {
			t.Fatalf("%d bits error %v not below previous %v", bits, e, prevErr)
		}
		prevErr = e
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 1) },
		func() { New(17, 1) },
		func() { New(4, 0) },
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
