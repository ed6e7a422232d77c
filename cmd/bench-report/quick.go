package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/crossbar"
	"repro/internal/par"
	"repro/internal/tensor"
)

// The -quick mode: run every hot kernel once on fixed seeded inputs and
// print an FNV-1a checksum of the outputs. The table carries no timings,
// so it is byte-identical run to run and — by the tile engine's
// determinism contract — across -workers values; the CI determinism leg
// diffs it at -workers 1 vs 4. The update line is printed for both the
// engine and the reference path, which additionally pins their
// bit-identity into the diffed output.

// fnvMix folds one 64-bit word into an FNV-1a running hash.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

func sumVec(h uint64, v tensor.Vector) uint64 {
	for _, x := range v {
		h = fnvMix(h, math.Float64bits(x))
	}
	return h
}

// stateSum digests the complete exported array state: every device's
// internal scalars and counters, the mirror, and the pulse count — so a
// single flipped bit anywhere in an update's effect changes the line.
func stateSum(a *crossbar.Array) uint64 {
	st := a.ExportState()
	h := uint64(fnvOffset)
	for _, d := range st.Devices {
		for _, f := range d.F {
			h = fnvMix(h, math.Float64bits(f))
		}
		for _, c := range d.N {
			h = fnvMix(h, uint64(c))
		}
	}
	h = sumVec(h, st.Mirror)
	return fnvMix(h, uint64(st.Counts.Pulses))
}

func printChecksums(w io.Writer, workers int) {
	par.SetWorkers(workers)
	defer par.SetWorkers(0)
	fmt.Fprintf(w, "bench-report kernel checksums (deterministic at every worker count)\n")
	fmt.Fprintf(w, "%-18s %6s %18s\n", "kernel", "n", "checksum")
	for _, n := range []int{128, 512, 1024} {
		m, x, u := fill(n)
		arr := newArray(n)
		ref := newArray(n)
		xs, ys := fillBatch(n)

		// Update first: a fresh array's devices all sit at weight zero, and
		// reads on a zero matrix would checksum a degenerate all-zero
		// vector. The engine and reference update lines must match — their
		// bit-identity is part of the diffed table.
		arr.Update(0.001, u, x)
		arr.Update(-0.002, x, u)
		ref.UpdateReference(0.001, u, x)
		ref.UpdateReference(-0.002, x, u)
		fmt.Fprintf(w, "%-18s %6d %18x\n", "update", n, stateSum(arr))
		fmt.Fprintf(w, "%-18s %6d %18x\n", "update-reference", n, stateSum(ref))
		fmt.Fprintf(w, "%-18s %6d %18x\n", "forward", n, sumVec(fnvOffset, arr.Forward(x)))
		fmt.Fprintf(w, "%-18s %6d %18x\n", "backward", n, sumVec(fnvOffset, arr.Backward(u)))

		par.MatVecBatchInto(m, xs, ys)
		h := uint64(fnvOffset)
		for _, y := range ys {
			h = sumVec(h, y)
		}
		fmt.Fprintf(w, "%-18s %6d %18x\n", "forward-batch", n, h)
	}
}
