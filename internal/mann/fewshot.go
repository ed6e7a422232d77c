package mann

import (
	"repro/internal/cam"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/quant"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Retriever is a pluggable support-set memory: the §IV study compares fp32
// cosine retrieval (the GPU baseline) against fixed-point alternative
// metrics and CAM-friendly encodings by swapping only this component.
type Retriever interface {
	// Name identifies the retrieval scheme in result tables.
	Name() string
	// Reset clears all stored entries.
	Reset()
	// Store writes a labelled support vector.
	Store(v tensor.Vector, label int)
	// Classify returns the predicted label for a query (-1 if empty).
	Classify(q tensor.Vector) int
}

// ExactRetriever retrieves with full-precision scores — the conventional
// software MANN memory.
type ExactRetriever struct {
	Metric Metric
	keys   []tensor.Vector
	labels []int
}

// Name implements Retriever.
func (r *ExactRetriever) Name() string { return "fp32-" + r.Metric.String() }

// Reset implements Retriever.
func (r *ExactRetriever) Reset() { r.keys, r.labels = nil, nil }

// Store implements Retriever.
func (r *ExactRetriever) Store(v tensor.Vector, label int) {
	r.keys = append(r.keys, v.Clone())
	r.labels = append(r.labels, label)
}

// Classify implements Retriever.
func (r *ExactRetriever) Classify(q tensor.Vector) int {
	n := r.Metric.Nearest(q, r.keys)
	if n < 0 {
		return -1
	}
	return r.labels[n]
}

// QuantizedRetriever stores and queries fixed-point feature vectors — the
// precision/metric combination study of §IV-B.1.
type QuantizedRetriever struct {
	Metric Metric
	Q      *quant.Quantizer
	keys   []tensor.Vector
	labels []int
}

// Name implements Retriever.
func (r *QuantizedRetriever) Name() string {
	return fmtBits(r.Q.Bits) + "-" + r.Metric.String()
}

func fmtBits(b int) string {
	digits := ""
	if b >= 10 {
		digits += string(rune('0' + b/10))
	}
	digits += string(rune('0' + b%10))
	return digits + "bit"
}

// Reset implements Retriever.
func (r *QuantizedRetriever) Reset() { r.keys, r.labels = nil, nil }

// Store implements Retriever.
func (r *QuantizedRetriever) Store(v tensor.Vector, label int) {
	r.keys = append(r.keys, r.Q.QuantizeVec(v))
	r.labels = append(r.labels, label)
}

// Classify implements Retriever.
func (r *QuantizedRetriever) Classify(q tensor.Vector) int {
	n := r.Metric.Nearest(r.Q.QuantizeVec(q), r.keys)
	if n < 0 {
		return -1
	}
	return r.labels[n]
}

// LSHRetriever hashes vectors to binary signatures and retrieves by minimum
// Hamming distance with a single parallel TCAM best-match search
// (§IV-B.2, Fig. 5).
type LSHRetriever struct {
	Hasher *lsh.Hasher
	TCAM   *cam.TCAM
	labels []int
}

// NewLSHRetriever builds the retriever with nPlanes hash bits.
func NewLSHRetriever(dim, nPlanes int, rng *rngutil.Source) *LSHRetriever {
	return &LSHRetriever{
		Hasher: lsh.NewHasher(dim, nPlanes, rng),
		TCAM:   cam.New(nPlanes),
	}
}

// Name implements Retriever.
func (r *LSHRetriever) Name() string { return "lsh-hamming" }

// Reset implements Retriever.
func (r *LSHRetriever) Reset() {
	r.TCAM = cam.New(r.Hasher.NumPlanes())
	r.labels = nil
}

// Store implements Retriever.
func (r *LSHRetriever) Store(v tensor.Vector, label int) {
	r.TCAM.Store(SignatureRow(r.Hasher.Sign(v)))
	r.labels = append(r.labels, label)
}

// Classify implements Retriever.
func (r *LSHRetriever) Classify(q tensor.Vector) int {
	idx, _ := r.TCAM.BestMatch(SignatureRow(r.Hasher.Sign(q)))
	if idx < 0 {
		return -1
	}
	return r.labels[idx]
}

// SignatureRow is the TCAM word of an LSH signature: bit i set stores One
// in cell i, clear stores Zero.
func SignatureRow(sig lsh.Signature) cam.Row {
	row := make(cam.Row, sig.Bits)
	for i := range row {
		if sig.Get(i) {
			row[i] = cam.One
		}
	}
	return row
}

// CubeRetriever implements the RENE-style expanding-cube search of
// §IV-B.1: feature vectors are quantized, Gray-coded, and stored in a
// TCAM; a query issues L∞ cube searches of growing radius until candidates
// match, then ranks candidates by L2 in the near-memory function unit.
type CubeRetriever struct {
	Q     *quant.Quantizer
	Dim   int
	Radii []uint64

	tcam   *cam.TCAM
	codes  [][]int
	labels []int
}

// NewCubeRetriever builds the retriever for dim-dimensional vectors with
// the given fixed-point quantizer.
func NewCubeRetriever(q *quant.Quantizer, dim int) *CubeRetriever {
	return &CubeRetriever{
		Q:   q,
		Dim: dim,
		// One cube at the noise-matched radius plus a best-match fallback
		// keeps retrieval at "a few TCAM lookups" (§IV-B.1); calibrated for
		// the default few-shot universe and 4-bit codes.
		Radii: []uint64{7},
		tcam:  cam.New(dim * q.Bits),
	}
}

// Name implements Retriever.
func (r *CubeRetriever) Name() string { return fmtBits(r.Q.Bits) + "-tcam-cube-l2" }

// Reset implements Retriever.
func (r *CubeRetriever) Reset() {
	r.tcam = cam.New(r.Dim * r.Q.Bits)
	r.codes, r.labels = nil, nil
}

// Store implements Retriever.
func (r *CubeRetriever) Store(v tensor.Vector, label int) {
	codes := r.Q.Codes(v)
	row := make(cam.Row, 0, r.Dim*r.Q.Bits)
	for _, c := range codes {
		row = append(row, cam.GrayRow(uint64(c), r.Q.Bits)...)
	}
	r.tcam.Store(row)
	r.codes = append(r.codes, codes)
	r.labels = append(r.labels, label)
}

// alignedCover returns the ternary word for the smallest aligned Gray block
// containing [lo, hi] around value v (a single-word over-approximate cover;
// over-matching is harmless for a prefilter that is refined by L2).
func alignedCover(v, lo, hi uint64, bits int) cam.Row {
	k := 0
	for k < bits {
		mask := uint64(1)<<uint(k) - 1
		blockLo := v &^ mask
		blockHi := v | mask
		if blockLo <= lo && blockHi >= hi {
			break
		}
		k++
	}
	row := cam.GrayRow(v, bits)
	for i := 0; i < k && i < bits; i++ {
		row[i] = cam.X
	}
	return row
}

// Classify implements Retriever: expanding cube prefilter + L2 refine.
func (r *CubeRetriever) Classify(q tensor.Vector) int {
	if len(r.labels) == 0 {
		return -1
	}
	codes := r.Q.Codes(q)
	max := uint64(r.Q.Levels() - 1)
	for _, radius := range r.Radii {
		query := make(cam.Row, 0, r.Dim*r.Q.Bits)
		for _, c := range codes {
			v := uint64(c)
			lo := uint64(0)
			if v > radius {
				lo = v - radius
			}
			hi := v + radius
			if hi > max {
				hi = max
			}
			query = append(query, alignedCover(v, lo, hi, r.Q.Bits)...)
		}
		matches := r.tcam.SearchExact(query)
		if len(matches) == 0 {
			continue
		}
		// L2 refine among candidates, in code space.
		best, bestD := -1, int64(-1)
		for _, mi := range matches {
			var d int64
			for j, c := range r.codes[mi] {
				diff := int64(c - codes[j])
				d += diff * diff
			}
			if best == -1 || d < bestD {
				best, bestD = mi, d
			}
		}
		return r.labels[best]
	}
	// Fall back to a full degree-of-match search (one more TCAM op).
	q2 := make(cam.Row, 0, r.Dim*r.Q.Bits)
	for _, c := range codes {
		q2 = append(q2, cam.GrayRow(uint64(c), r.Q.Bits)...)
	}
	idx, _ := r.tcam.BestMatch(q2)
	return r.labels[idx]
}

// Searches reports TCAM lookups consumed so far — the "only a few TCAM
// lookups" cost claim of §IV-B.1.
func (r *CubeRetriever) Searches() int64 { return r.tcam.Searches }

// EvalConfig parameterizes one few-shot evaluation (experiment C4/F5).
type EvalConfig struct {
	NWay, KShot int
	NQuery      int // queries per class per episode
	Episodes    int
	// MemoryEntries pads the support memory with distractor entries from
	// outside classes up to this total (0 = no distractors), reproducing
	// the "512 memory entries" setting of §IV-B.1.
	MemoryEntries int
	Seed          uint64
}

// EvaluateFewShot measures classification accuracy of a retriever over
// episodic tasks drawn from the universe. Distractor entries are labelled
// -1 so retrieving one is always an error.
func EvaluateFewShot(u *dataset.FewShotUniverse, r Retriever, cfg EvalConfig) float64 {
	rng := rngutil.New(cfg.Seed)
	correct, total := 0, 0
	for e := 0; e < cfg.Episodes; e++ {
		r.Reset()
		ep := u.SampleEpisode(cfg.NWay, cfg.KShot, cfg.NQuery)
		for i, s := range ep.Support {
			r.Store(s, ep.SupportLabels[i])
		}
		inEpisode := make(map[int]bool, len(ep.Classes))
		for _, c := range ep.Classes {
			inEpisode[c] = true
		}
		for extra := len(ep.Support); extra < cfg.MemoryEntries; extra++ {
			c := rng.Intn(u.Cfg.Classes)
			for inEpisode[c] {
				c = rng.Intn(u.Cfg.Classes)
			}
			r.Store(u.Sample(c, rng), -1)
		}
		for qi, q := range ep.Query {
			if r.Classify(q) == ep.QueryLabels[qi] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
