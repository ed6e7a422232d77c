//go:build !amd64

package cpufeat

// HasAVX2 reports whether AVX2 kernels may run on this host: never off
// amd64.
func HasAVX2() bool { return false }
