package dataset

import (
	"math/rand"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// ClickSample is one recommendation-inference input: dense user/context
// features plus one multi-hot sparse index list per embedding table, and the
// ground-truth click label.
type ClickSample struct {
	Dense  tensor.Vector
	Sparse [][]int // Sparse[t] = indices into table t
	Click  float64 // 0 or 1
}

// ClickLogConfig parameterizes the synthetic recommendation trace. Sparse
// indices follow a Zipf distribution, matching the heavy-tailed item
// popularity that makes embedding-access locality studies meaningful (§V-B).
type ClickLogConfig struct {
	DenseDim    int
	TableSizes  []int   // rows per embedding table
	LookupsPer  int     // multi-hot: indices per table per sample
	ZipfS       float64 // Zipf exponent (>1); larger = more skewed
	LatentNoise float64 // label noise
}

// DefaultClickLog mirrors a small DLRM-like input spec.
func DefaultClickLog() ClickLogConfig {
	return ClickLogConfig{
		DenseDim:    16,
		TableSizes:  []int{10000, 5000, 2000, 500},
		LookupsPer:  4,
		ZipfS:       1.2,
		LatentNoise: 0.2,
	}
}

// ClickLog generates n samples. Labels come from a hidden linear "taste"
// model over dense features and latent item factors, so a trained model has
// real signal to find.
type ClickLog struct {
	Cfg     ClickLogConfig
	Samples []ClickSample
}

// NewClickLog generates the synthetic trace.
func NewClickLog(cfg ClickLogConfig, n int, rng *rngutil.Source) *ClickLog {
	denseRng := rng.Child("dense")
	labelRng := rng.Child("label")
	// Hidden per-item affinity: each table row carries a scalar latent factor.
	latents := make([][]float64, len(cfg.TableSizes))
	lr := rng.Child("latent")
	for t, sz := range cfg.TableSizes {
		latents[t] = make([]float64, sz)
		for i := range latents[t] {
			latents[t][i] = lr.NormFloat64()
		}
	}
	denseTaste := make(tensor.Vector, cfg.DenseDim)
	for i := range denseTaste {
		denseTaste[i] = lr.NormFloat64()
	}

	zipfs := make([]*rand.Zipf, len(cfg.TableSizes))
	for t, sz := range cfg.TableSizes {
		zipfs[t] = rand.NewZipf(rng.Child("zipf").Rand, cfg.ZipfS, 1, uint64(sz-1))
	}

	log := &ClickLog{Cfg: cfg}
	for i := 0; i < n; i++ {
		s := ClickSample{Dense: make(tensor.Vector, cfg.DenseDim)}
		for j := range s.Dense {
			s.Dense[j] = denseRng.NormFloat64()
		}
		score := tensor.Dot(s.Dense, denseTaste) / float64(cfg.DenseDim)
		for t := range cfg.TableSizes {
			idxs := make([]int, cfg.LookupsPer)
			for k := range idxs {
				idxs[k] = int(zipfs[t].Uint64())
				score += latents[t][idxs[k]] / float64(len(cfg.TableSizes)*cfg.LookupsPer)
			}
			s.Sparse = append(s.Sparse, idxs)
		}
		score += labelRng.Normal(0, cfg.LatentNoise)
		if score > 0 {
			s.Click = 1
		}
		log.Samples = append(log.Samples, s)
	}
	return log
}

// CTR returns the fraction of positive labels in the log.
func (l *ClickLog) CTR() float64 {
	if len(l.Samples) == 0 {
		return 0
	}
	pos := 0.0
	for _, s := range l.Samples {
		pos += s.Click
	}
	return pos / float64(len(l.Samples))
}
