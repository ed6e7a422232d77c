package tensor

import "math"

// Sigmoid returns 1/(1+exp(-x)).
func Sigmoid(x float64) float64 {
	// Split on sign to avoid overflow in exp for large |x|.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// SigmoidPrime returns the derivative of Sigmoid expressed in terms of the
// activation y = Sigmoid(x).
func SigmoidPrime(y float64) float64 { return y * (1 - y) }

// Tanh returns the hyperbolic tangent of x.
func Tanh(x float64) float64 { return math.Tanh(x) }

// TanhPrime returns the derivative of Tanh expressed in terms of the
// activation y = Tanh(x).
func TanhPrime(y float64) float64 { return 1 - y*y }

// ReLU returns max(0, x).
func ReLU(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// ReLUPrime returns the derivative of ReLU at pre-activation x (0 at x==0,
// the standard subgradient choice).
func ReLUPrime(x float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

// Apply returns a new vector with f applied element-wise.
func Apply(v Vector, f func(float64) float64) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = f(x)
	}
	return out
}
