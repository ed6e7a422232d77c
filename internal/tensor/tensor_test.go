package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randVec(r *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func randMat(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestVectorBasicOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	v.Add(w)
	want := Vector{5, 7, 9}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Add: got %v want %v", v, want)
		}
	}
	v.Sub(w)
	want = Vector{1, 2, 3}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Sub: got %v want %v", v, want)
		}
	}
	v.Scale(2)
	if v[2] != 6 {
		t.Fatalf("Scale: got %v", v)
	}
	v.AXPY(0.5, w)
	if !almostEqual(v[0], 4, 1e-12) {
		t.Fatalf("AXPY: got %v", v)
	}
}

func TestDot(t *testing.T) {
	if got := Dot(Vector{1, 2, 3}, Vector{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestNorms(t *testing.T) {
	v := Vector{3, -4}
	if v.Norm1() != 7 {
		t.Errorf("Norm1 = %v, want 7", v.Norm1())
	}
	if v.Norm2() != 5 {
		t.Errorf("Norm2 = %v, want 5", v.Norm2())
	}
}

func TestArgMax(t *testing.T) {
	if (Vector{}).ArgMax() != -1 {
		t.Error("ArgMax of empty should be -1")
	}
	if got := (Vector{1, 5, 3, 5}).ArgMax(); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first maximum)", got)
	}
}

func TestClamp(t *testing.T) {
	v := Vector{-2, 0.5, 3}
	v.Clamp(-1, 1)
	want := Vector{-1, 0.5, 1}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Clamp: got %v want %v", v, want)
		}
	}
}

func TestDistances(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{3, 4}
	if EuclideanDistance(a, b) != 5 {
		t.Error("L2 distance wrong")
	}
	if ManhattanDistance(a, b) != 7 {
		t.Error("L1 distance wrong")
	}
	if ChebyshevDistance(a, b) != 4 {
		t.Error("Linf distance wrong")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := Vector{1, 0}
	if got := CosineSimilarity(a, Vector{2, 0}); !almostEqual(got, 1, 1e-9) {
		t.Errorf("parallel cosine = %v, want 1", got)
	}
	if got := CosineSimilarity(a, Vector{0, 1}); !almostEqual(got, 0, 1e-9) {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := CosineSimilarity(a, Vector{-1, 0}); !almostEqual(got, -1, 1e-9) {
		t.Errorf("antiparallel cosine = %v, want -1", got)
	}
	if got := CosineSimilarity(Vector{0, 0}, a); !almostEqual(got, 0, 1e-9) {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}

func TestSoftmaxSimplex(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		v := randVec(r, 1+r.Intn(20))
		v.Scale(10) // stress stability
		s := Softmax(v)
		sum := 0.0
		for _, p := range s {
			if p < 0 || p > 1 {
				t.Fatalf("softmax element %v out of [0,1]", p)
			}
			sum += p
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("softmax sums to %v", sum)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	s := Softmax(Vector{1000, 1000, 1000})
	for _, p := range s {
		if !almostEqual(p, 1.0/3, 1e-9) {
			t.Fatalf("softmax of equal large values = %v", s)
		}
	}
}

func TestSoftmaxTemperatureSharpens(t *testing.T) {
	v := Vector{1, 2}
	soft := SoftmaxT(v, 1)
	sharp := SoftmaxT(v, 10)
	if sharp[1] <= soft[1] {
		t.Errorf("higher beta should sharpen: beta=10 gives %v vs beta=1 %v", sharp[1], soft[1])
	}
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := m.MatVec(Vector{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MatVec = %v", y)
	}
}

func TestMatVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := m.MatVecT(Vector{1, 1})
	if y[0] != 5 || y[1] != 7 || y[2] != 9 {
		t.Fatalf("MatVecT = %v", y)
	}
}

// Property: MatVecT(m, x) == MatVec(Transpose(m), x).
func TestMatVecTMatchesExplicitTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+r.Intn(15), 1+r.Intn(15)
		m := randMat(r, rows, cols)
		x := randVec(r, rows)
		got := m.MatVecT(x)
		want := m.Transpose().MatVec(x)
		for j := range got {
			if !almostEqual(got[j], want[j], 1e-9) {
				t.Fatalf("MatVecT mismatch at %d: %v vs %v", j, got[j], want[j])
			}
		}
	}
}

// Property: (Aᵀ)ᵀ = A.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		m := randMat(r, rows, cols)
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MatVec is linear: A(ax + by) = a·Ax + b·Ay.
func TestMatVecLinearity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := randMat(r, rows, cols)
		x, y := randVec(r, cols), randVec(r, cols)
		a, b := r.NormFloat64(), r.NormFloat64()
		comb := make(Vector, cols)
		for j := range comb {
			comb[j] = a*x[j] + b*y[j]
		}
		lhs := m.MatVec(comb)
		mx, my := m.MatVec(x), m.MatVec(y)
		for i := range lhs {
			if !almostEqual(lhs[i], a*mx[i]+b*my[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: AddOuter adds exactly scale·u_i·v_j everywhere.
func TestAddOuter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := randMat(r, rows, cols)
		before := m.Clone()
		u, v := randVec(r, rows), randVec(r, cols)
		scale := r.NormFloat64()
		m.AddOuter(scale, u, v)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want := before.At(i, j) + scale*u[i]*v[j]
				if !almostEqual(m.At(i, j), want, 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Error("Fill failed")
	}
	m.Set(0, 1, -7)
	if m.MaxAbs() != 7 {
		t.Errorf("MaxAbs = %v, want 7", m.MaxAbs())
	}
	m2 := m.Clone()
	m2.Set(0, 0, 6)
	if m.At(0, 0) != 3 || m2.At(0, 0) != 6 {
		t.Error("Clone aliasing bug")
	}
	if got := NewMatrix(2, 2).FrobeniusNorm(); got != 0 {
		t.Errorf("Frobenius of zero = %v", got)
	}
}

func TestRowAliases(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Error("Row should alias matrix storage")
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestHadamard(t *testing.T) {
	got := Hadamard(Vector{1, 2, 3}, Vector{4, 5, 6})
	want := Vector{4, 10, 18}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Hadamard = %v", got)
		}
	}
}

func TestActivations(t *testing.T) {
	if !almostEqual(Sigmoid(0), 0.5, 1e-12) {
		t.Error("Sigmoid(0) != 0.5")
	}
	// Sigmoid must not overflow for large |x|.
	if Sigmoid(1000) != 1 || Sigmoid(-1000) != 0 {
		t.Error("Sigmoid saturation wrong")
	}
	if SigmoidPrime(0.5) != 0.25 {
		t.Error("SigmoidPrime wrong")
	}
	if ReLU(-1) != 0 || ReLU(2) != 2 {
		t.Error("ReLU wrong")
	}
	if ReLUPrime(-1) != 0 || ReLUPrime(1) != 1 {
		t.Error("ReLUPrime wrong")
	}
	if !almostEqual(TanhPrime(Tanh(0.3)), 1-math.Tanh(0.3)*math.Tanh(0.3), 1e-12) {
		t.Error("TanhPrime wrong")
	}
}

func TestApply(t *testing.T) {
	v := Vector{-1, 2}
	out := Apply(v, ReLU)
	if out[0] != 0 || out[1] != 2 {
		t.Error("Apply wrong")
	}
	if v[0] != -1 {
		t.Error("Apply must not mutate input")
	}
}

// Numerical-gradient check: sigmoid derivative.
func TestSigmoidDerivativeNumerically(t *testing.T) {
	const h = 1e-6
	for _, x := range []float64{-2, -0.5, 0, 0.7, 3} {
		num := (Sigmoid(x+h) - Sigmoid(x-h)) / (2 * h)
		ana := SigmoidPrime(Sigmoid(x))
		if !almostEqual(num, ana, 1e-5) {
			t.Errorf("sigmoid'(%v): numeric %v vs analytic %v", x, num, ana)
		}
	}
}
