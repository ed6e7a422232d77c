// Package tensor implements the dense linear algebra used throughout the
// repository: vectors, row-major matrices, matrix-vector products (plain and
// transposed), rank-1 outer-product updates, reductions, norms, and the
// element-wise nonlinearities used by the neural-network substrate.
//
// Everything is float64. The analog-crossbar simulator, the digital baseline
// networks, and the accelerator cost models all express their functional
// behaviour in terms of this package, so its correctness properties are
// tested heavily (including with testing/quick).
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense 1-D array of float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Add adds w into v element-wise. It panics if lengths differ.
func (v Vector) Add(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += w[i]
	}
}

// Sub subtracts w from v element-wise. It panics if lengths differ.
func (v Vector) Sub(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] -= w[i]
	}
}

// Scale multiplies every element of v by a.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AXPY computes v += a*w. It panics if lengths differ.
func (v Vector) AXPY(a float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func Dot(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Hadamard returns the element-wise product of v and w.
func Hadamard(v, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Hadamard length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] * w[i]
	}
	return out
}

// Norm1 returns the L1 norm of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ArgMax returns the index of the largest element, or -1 for an empty vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Clamp limits every element of v to [lo, hi].
func (v Vector) Clamp(lo, hi float64) {
	for i, x := range v {
		if x < lo {
			v[i] = lo
		} else if x > hi {
			v[i] = hi
		}
	}
}

// CosineSimilarity returns the cosine of the angle between v and w, with the
// small epsilon regularization used by NTM-style content addressing. It is 0
// when either vector is (near-)zero.
func CosineSimilarity(v, w Vector) float64 {
	denom := v.Norm2()*w.Norm2() + 1e-12
	return Dot(v, w) / denom
}

// EuclideanDistance returns the L2 distance between v and w.
func EuclideanDistance(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: EuclideanDistance length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ManhattanDistance returns the L1 distance between v and w.
func ManhattanDistance(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: ManhattanDistance length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += math.Abs(v[i] - w[i])
	}
	return s
}

// ChebyshevDistance returns the L∞ distance between v and w.
func ChebyshevDistance(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: ChebyshevDistance length mismatch %d vs %d", len(v), len(w)))
	}
	var m float64
	for i := range v {
		if d := math.Abs(v[i] - w[i]); d > m {
			m = d
		}
	}
	return m
}

// Softmax returns the softmax of v with temperature 1. The implementation is
// max-shifted for numerical stability; the result always lies on the
// probability simplex.
func Softmax(v Vector) Vector {
	return SoftmaxT(v, 1)
}

// SoftmaxT returns softmax(beta * v). beta > 1 sharpens, beta < 1 flattens.
func SoftmaxT(v Vector, beta float64) Vector {
	out := make(Vector, len(v))
	if len(v) == 0 {
		return out
	}
	maxv := math.Inf(-1)
	for _, x := range v {
		if bx := beta * x; bx > maxv {
			maxv = bx
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(beta*x - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape. It panics on
// negative dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element of m to x.
func (m *Matrix) Fill(x float64) {
	for i := range m.Data {
		m.Data[i] = x
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// MatVec computes y = m · x. It panics if len(x) != Cols.
func (m *Matrix) MatVec(x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec length mismatch: %d cols vs %d", m.Cols, len(x)))
	}
	y := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, xj := range x {
			s += row[j] * xj
		}
		y[i] = s
	}
	return y
}

// MatVecT computes y = mᵀ · x without materializing the transpose. It panics
// if len(x) != Rows.
func (m *Matrix) MatVecT(x Vector) Vector {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVecT length mismatch: %d rows vs %d", m.Rows, len(x)))
	}
	y := make(Vector, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j := range row {
			y[j] += row[j] * xi
		}
	}
	return y
}

// AddOuter performs the rank-1 update m += scale · (u ⊗ v), the digital
// reference for the crossbar's parallel weight update (Fig. 1 right).
// It panics if len(u) != Rows or len(v) != Cols.
func (m *Matrix) AddOuter(scale float64, u, v Vector) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuter shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, len(u), len(v)))
	}
	for i := 0; i < m.Rows; i++ {
		su := scale * u[i]
		if su == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += su * v[j]
		}
	}
}

// MaxAbs returns the largest absolute element of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var best float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > best {
			best = a
		}
	}
	return best
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}
