package faults

import (
	"fmt"

	"repro/internal/cam"
	"repro/internal/lsh"
	"repro/internal/mann"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// tcamCellFault is one physical TCAM cell's manufacturing state.
type tcamCellFault uint8

const (
	cellHealthy tcamCellFault = iota
	cellStuck0                // always stores 0, whatever is written
	cellStuck1                // always stores 1
	cellStuckX                // always stores X (can never mismatch: over-matches)
)

// FaultyLSHRetriever is the LSH/TCAM few-shot retriever of §IV-B.2
// evaluated on an imperfect TCAM array: a seeded fraction of physical
// cells is stuck (at 0, 1, or don't-care, equiprobably), corrupting every
// word written through them. Redundancy R stores each support vector in R
// distinct physical rows — different rows, different fault cells — and
// classifies with the best match over all copies, the spatial-redundancy
// remediation of the degradation study.
//
// It implements mann.Retriever, so mann.EvaluateFewShot drives it
// unchanged. Reset clears the stored words but keeps the physical fault
// map: the chip does not heal between episodes.
type FaultyLSHRetriever struct {
	Redundancy int

	hasher   *lsh.Hasher
	tcam     *cam.TCAM
	labels   []int
	faultMap []tcamCellFault // capacity rows × width, row-major
	width    int
	next     int   // next physical row to be written
	searches int64 // search ops from TCAM generations already reset away
}

// NewFaultyLSHRetriever builds the retriever with nPlanes hash bits over a
// physical array of capacity rows whose cells are stuck with probability
// stuckRate. redundancy < 1 is treated as 1.
func NewFaultyLSHRetriever(dim, nPlanes, capacity int, stuckRate float64, redundancy int, rng *rngutil.Source) *FaultyLSHRetriever {
	if redundancy < 1 {
		redundancy = 1
	}
	r := &FaultyLSHRetriever{
		Redundancy: redundancy,
		hasher:     lsh.NewHasher(dim, nPlanes, rng.Child("planes")),
		tcam:       cam.New(nPlanes),
		faultMap:   make([]tcamCellFault, capacity*nPlanes),
		width:      nPlanes,
	}
	// Yield draws and fault-type draws come from separate streams so that,
	// for a fixed seed, the stuck-cell set at a lower rate is a subset of
	// the set at any higher rate — degradation sweeps are then monotone in
	// the fault population by construction.
	fr := rng.Child("cells")
	tr := rng.Child("types")
	for i := range r.faultMap {
		if fr.Bernoulli(stuckRate) {
			r.faultMap[i] = tcamCellFault(1 + tr.Intn(3))
		}
	}
	return r
}

// Name implements mann.Retriever.
func (r *FaultyLSHRetriever) Name() string {
	return fmt.Sprintf("lsh-tcam-faulty-x%d", r.Redundancy)
}

// Reset implements mann.Retriever: clears contents, keeps the fault map.
func (r *FaultyLSHRetriever) Reset() {
	r.searches += r.tcam.Searches
	r.tcam = cam.New(r.width)
	r.labels = nil
	r.next = 0
}

// row builds the fault-corrupted word that lands in physical row `phys`
// when `sig` is written to it.
func (r *FaultyLSHRetriever) row(phys int, sig lsh.Signature) cam.Row {
	row := mann.SignatureRow(sig)
	for c := range row {
		if base := phys * r.width; base+c < len(r.faultMap) {
			switch r.faultMap[base+c] {
			case cellStuck0:
				row[c] = cam.Zero
			case cellStuck1:
				row[c] = cam.One
			case cellStuckX:
				row[c] = cam.X
			}
		}
	}
	return row
}

// Store implements mann.Retriever: the signature is written into
// Redundancy consecutive physical rows, each through its own fault cells.
func (r *FaultyLSHRetriever) Store(v tensor.Vector, label int) {
	sig := r.hasher.Sign(v)
	for c := 0; c < r.Redundancy; c++ {
		r.tcam.Store(r.row(r.next, sig))
		r.labels = append(r.labels, label)
		r.next++
	}
}

// Classify implements mann.Retriever: one degree-of-match search over all
// physical rows; the best copy of any entry wins.
func (r *FaultyLSHRetriever) Classify(q tensor.Vector) int {
	idx, _ := r.tcam.BestMatch(mann.SignatureRow(r.hasher.Sign(q)))
	if idx < 0 {
		return -1
	}
	return r.labels[idx]
}

// Searches reports TCAM search operations consumed across all episodes
// (cost accounting: the redundant copies cost storage rows, not extra
// searches).
func (r *FaultyLSHRetriever) Searches() int64 { return r.searches + r.tcam.Searches }

var _ mann.Retriever = (*FaultyLSHRetriever)(nil)
