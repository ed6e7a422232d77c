// Package cpufeat reports the instruction-set extensions of the host CPU
// that the hand-written kernels in this repository can use. It is the one
// place that runs CPUID: packages with an assembly leaf read HasAVX2 once
// at start-up and fall back to their Go loops when it is false, or on any
// architecture other than amd64.
package cpufeat
