//go:build !amd64

package rngutil

const useAVX2 = false

// leafDraws takes no draws off amd64: the scalar loop takes every one.
func leafDraws(vec *[rngLen]int64, tap, feed int, k uint64, n int) (bits uint64, drawn int) {
	return 0, 0
}
