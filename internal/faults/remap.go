package faults

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/crossbar"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// RemappedArray is a crossbar with redundant (spare) columns and a
// logical→physical column map: the remapping remediation of Kazemi et al.
// A logical C-column weight matrix lives on a physical array of C + S
// columns; when detection finds a physical column riddled with dead
// crosspoints, the logical column is relocated onto the healthiest spare
// and the abandoned column's input line is simply never driven again.
//
// It implements nn.Mat with the *logical* geometry, so networks train and
// infer through it unchanged.
type RemappedArray struct {
	// Arr is the physical array (rows × logical+spare columns).
	Arr     *crossbar.Array
	logical int
	colOf   []int // logical column -> physical column
	spares  []int // unused physical columns, ascending
	// Remapped counts relocations performed so far.
	Remapped int
}

// NewRemappedArray builds a rows×logicalCols logical array backed by a
// physical crossbar with spareCols redundant columns.
func NewRemappedArray(rows, logicalCols, spareCols int, model crossbar.Model, cfg crossbar.Config, rng *rngutil.Source) *RemappedArray {
	if spareCols < 0 {
		panic("faults: negative spare count")
	}
	r := &RemappedArray{
		Arr:     crossbar.NewArray(rows, logicalCols+spareCols, model, cfg, rng),
		logical: logicalCols,
		colOf:   make([]int, logicalCols),
	}
	for j := range r.colOf {
		r.colOf[j] = j
	}
	for s := 0; s < spareCols; s++ {
		r.spares = append(r.spares, logicalCols+s)
	}
	return r
}

// Rows implements nn.Mat.
func (r *RemappedArray) Rows() int { return r.Arr.Rows() }

// Cols implements nn.Mat (the logical width).
func (r *RemappedArray) Cols() int { return r.logical }

// OpOrderPinned implements nn.OrderPinned by delegating to the physical
// array (pinned while a fault hook is attached).
func (r *RemappedArray) OpOrderPinned() bool { return r.Arr.OpOrderPinned() }

// mapIn scatters a logical column vector onto the physical columns;
// retired and unused spare columns receive zero input, so whatever their
// stuck devices hold can never reach an output.
func (r *RemappedArray) mapIn(v tensor.Vector) tensor.Vector {
	vp := make(tensor.Vector, r.Arr.Cols())
	for j, p := range r.colOf {
		vp[p] = v[j]
	}
	return vp
}

// Forward implements nn.Mat.
func (r *RemappedArray) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != r.logical {
		panic(fmt.Sprintf("faults: Forward expects %d inputs, got %d", r.logical, len(x)))
	}
	return r.Arr.Forward(r.mapIn(x))
}

// ForwardBatch implements nn.BatchMat: the whole batch is scattered to
// physical geometry and executed as one tile grid under a single periphery
// acquisition. Bit-identical to sequential Forward calls.
func (r *RemappedArray) ForwardBatch(xs []tensor.Vector) []tensor.Vector {
	xp := make([]tensor.Vector, len(xs))
	for s, x := range xs {
		if len(x) != r.logical {
			panic(fmt.Sprintf("faults: ForwardBatch expects %d inputs, got %d (sample %d)", r.logical, len(x), s))
		}
		xp[s] = r.mapIn(x)
	}
	return r.Arr.ForwardBatch(xp)
}

// Backward implements nn.Mat: the physical transposed MVM followed by a
// gather of the mapped columns.
func (r *RemappedArray) Backward(d tensor.Vector) tensor.Vector {
	yp := r.Arr.Backward(d)
	y := make(tensor.Vector, r.logical)
	for j, p := range r.colOf {
		y[j] = yp[p]
	}
	return y
}

// SkipBackward implements nn.BackwardSkipper: the column gather has no side
// effects, so only the physical array's cycle is left.
func (r *RemappedArray) SkipBackward(d tensor.Vector) { r.Arr.SkipBackward(d) }

// Update implements nn.Mat.
func (r *RemappedArray) Update(scale float64, u, v tensor.Vector) {
	if len(v) != r.logical {
		panic(fmt.Sprintf("faults: Update expects %d column entries, got %d", r.logical, len(v)))
	}
	r.Arr.Update(scale, u, r.mapIn(v))
}

// PhysTarget expands a logical target matrix to physical geometry under
// the current mapping (unmapped columns target zero).
func (r *RemappedArray) PhysTarget(target *tensor.Matrix) *tensor.Matrix {
	if target.Rows != r.Arr.Rows() || target.Cols != r.logical {
		panic("faults: PhysTarget shape mismatch")
	}
	phys := tensor.NewMatrix(r.Arr.Rows(), r.Arr.Cols())
	for i := 0; i < target.Rows; i++ {
		for j, p := range r.colOf {
			phys.Set(i, p, target.At(i, j))
		}
	}
	return phys
}

// Program write-verifies the logical target into the mapped columns with
// retry and backoff.
func (r *RemappedArray) Program(target *tensor.Matrix, pol crossbar.ProgramPolicy) crossbar.ProgramReport {
	return r.Arr.ProgramVerify(r.PhysTarget(target), pol)
}

// Residual reports the mean |weight − target| over mapped, yielding
// crosspoints — the logical programming error, excluding retired columns.
// As in crossbar.ProgramReport, the target is clipped to the device range.
func (r *RemappedArray) Residual(target *tensor.Matrix) float64 {
	lo, hi := r.Arr.Model().WeightBounds()
	var sum float64
	n := 0
	for i := 0; i < r.Arr.Rows(); i++ {
		for j, p := range r.colOf {
			if r.Arr.IsStuck(i, p) {
				continue
			}
			want := math.Min(hi, math.Max(lo, target.At(i, j)))
			sum += math.Abs(r.Arr.DeviceWeight(i, p) - want)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RepairReport summarizes one Repair pass for degradation accounting.
type RepairReport struct {
	Diagnosis Diagnosis
	// Remapped is the number of logical columns relocated this pass.
	Remapped int
	// Pulses spent reprogramming relocated columns.
	Pulses int
}

// Repair runs detection against the logical target and relocates the
// worst-damaged logical columns onto spares: columns are ranked by
// confirmed-dead crosspoints, and each moves only if a spare with strictly
// fewer dead cells exists (otherwise relocation would not help). Moved
// columns are reprogrammed with per-device write-verify using maxPulses.
func (r *RemappedArray) Repair(target *tensor.Matrix, cellTol float64, maxPulses int) RepairReport {
	diag := Detect(r.Arr, r.PhysTarget(target), cellTol)
	rep := RepairReport{Diagnosis: diag}

	// Rank logical columns by damage, worst first (stable on index).
	order := make([]int, r.logical)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return diag.DeadPerCol[r.colOf[order[a]]] > diag.DeadPerCol[r.colOf[order[b]]]
	})

	for _, j := range order {
		if len(r.spares) == 0 {
			break
		}
		dead := diag.DeadPerCol[r.colOf[j]]
		if dead == 0 {
			break
		}
		// Healthiest spare: fewest dead cells, lowest index on ties.
		best, bestDead := -1, 0
		for si, p := range r.spares {
			if best == -1 || diag.DeadPerCol[p] < bestDead {
				best, bestDead = si, diag.DeadPerCol[p]
			}
		}
		if bestDead >= dead {
			continue // no spare is healthier than the incumbent
		}
		spare := r.spares[best]
		r.spares = append(r.spares[:best], r.spares[best+1:]...)
		r.colOf[j] = spare
		r.Remapped++
		rep.Remapped++
		for i := 0; i < r.Arr.Rows(); i++ {
			p, _ := r.Arr.ProgramDevice(i, spare, target.At(i, j), maxPulses)
			rep.Pulses += p
		}
	}
	return rep
}
