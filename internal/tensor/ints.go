package tensor

// Small integer helpers shared across packages (sizing tile grids, bounding
// retry budgets). They live here because tensor is the one package
// everything else already imports.

// MinInt returns the smaller of a and b.
func MinInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MaxInt returns the larger of a and b.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
