package faults

import (
	"math"

	"repro/internal/crossbar"
	"repro/internal/tensor"
)

// Diagnosis is the result of one checksum-probe detection pass.
type Diagnosis struct {
	// SuspectCols are the physical columns whose checksum deviated.
	SuspectCols []int
	// Dead lists the (row, col) crosspoints confirmed outside tolerance
	// by a column probe.
	Dead [][2]int
	// DeadPerCol counts dead crosspoints per physical column.
	DeadPerCol []int
	// Reads is the number of array read operations the pass consumed.
	Reads int
}

// Detect locates dead crosspoints on a against the intended weight matrix
// want using the read path only — the way a chip controller must, since it
// cannot inspect device state directly. It is a two-level scheme:
//
//  1. Checksum pass: two transposed reads (the all-ones and alternating
//     ±1 probes — the role a dedicated checksum row plays in hardware)
//     yield every column's weight sum; columns whose sums deviate from
//     the target's are suspects. Two probes with different sign patterns
//     keep opposite-signed faults in one column from cancelling silently.
//  2. Column probes: each suspect column j is read out exactly with a
//     one-hot forward MVM e_j, and crosspoints with |w − want| > cellTol
//     are flagged dead.
//
// Cost is 2 + |suspects| reads instead of the cols reads of a full scan.
// The pass runs through any installed fault hook, so transient read upsets
// can cause (harmless) false positives — exactly as on silicon.
func Detect(a *crossbar.Array, want *tensor.Matrix, cellTol float64) Diagnosis {
	rows, cols := a.Rows(), a.Cols()
	if want.Rows != rows || want.Cols != cols {
		panic("faults: Detect shape mismatch")
	}
	if cellTol <= 0 {
		cellTol = 1.5 * a.Model().MeanStep()
	}
	// Compare against the *achievable* target: programming can only reach
	// the device's weight bounds, so a saturated weight is not a fault and
	// relocating it would waste a spare on an error remapping cannot fix.
	lo, hi := a.Model().WeightBounds()
	aim := func(w float64) float64 {
		if w < lo {
			return lo
		}
		if w > hi {
			return hi
		}
		return w
	}
	diag := Diagnosis{DeadPerCol: make([]int, cols)}

	// Level 1: checksum reads. Column sums come out of the transposed MVM.
	ones := make(tensor.Vector, rows)
	alt := make(tensor.Vector, rows)
	for i := range ones {
		ones[i] = 1
		if i%2 == 0 {
			alt[i] = 1
		} else {
			alt[i] = -1
		}
	}
	gotOnes := a.Backward(ones)
	gotAlt := a.Backward(alt)
	diag.Reads += 2
	colTol := 3 * cellTol * math.Sqrt(float64(rows))
	for j := 0; j < cols; j++ {
		var wantOnes, wantAlt float64
		for i := 0; i < rows; i++ {
			w := aim(want.At(i, j))
			wantOnes += w
			if i%2 == 0 {
				wantAlt += w
			} else {
				wantAlt -= w
			}
		}
		if math.Abs(gotOnes[j]-wantOnes) > colTol || math.Abs(gotAlt[j]-wantAlt) > colTol {
			diag.SuspectCols = append(diag.SuspectCols, j)
		}
	}

	// Level 2: one-hot probes of the suspect columns.
	probe := make(tensor.Vector, cols)
	cellThresh := 2 * cellTol
	for _, j := range diag.SuspectCols {
		probe[j] = 1
		col := a.Forward(probe)
		probe[j] = 0
		diag.Reads++
		for i := 0; i < rows; i++ {
			if math.Abs(col[i]-aim(want.At(i, j))) > cellThresh {
				diag.Dead = append(diag.Dead, [2]int{i, j})
				diag.DeadPerCol[j]++
			}
		}
	}
	return diag
}
