// Package dataset provides the deterministic synthetic workloads used in
// place of the paper's proprietary or external datasets (MNIST, Omniglot,
// production recommendation traces). Difficulty is controlled by explicit
// class-separation and noise parameters so that fp32 baselines can be
// calibrated near the paper's reported baseline accuracies, per the
// substitution policy in DESIGN.md §4.
package dataset

import (
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// Classification is a labelled vector dataset.
type Classification struct {
	X       []tensor.Vector
	Y       []int
	Classes int
	Dim     int
}

// Len returns the number of examples.
func (c *Classification) Len() int { return len(c.X) }

// Shuffle permutes the examples in place using rng.
func (c *Classification) Shuffle(rng *rngutil.Source) {
	rng.Shuffle(len(c.X), func(i, j int) {
		c.X[i], c.X[j] = c.X[j], c.X[i]
		c.Y[i], c.Y[j] = c.Y[j], c.Y[i]
	})
}

// Split partitions the dataset into train/test by fraction (test gets the
// tail). It does not shuffle; call Shuffle first if desired.
func (c *Classification) Split(trainFrac float64) (train, test *Classification) {
	n := int(float64(len(c.X)) * trainFrac)
	train = &Classification{X: c.X[:n], Y: c.Y[:n], Classes: c.Classes, Dim: c.Dim}
	test = &Classification{X: c.X[n:], Y: c.Y[n:], Classes: c.Classes, Dim: c.Dim}
	return train, test
}

// DigitsConfig parameterizes the synthetic MNIST stand-in.
type DigitsConfig struct {
	Classes    int     // number of digit classes (default 10)
	Dim        int     // feature dimension, e.g. 64 for 8×8 "images"
	PerClass   int     // examples per class
	Noise      float64 // within-class Gaussian noise std
	Separation float64 // prototype magnitude; larger = easier
}

// DefaultDigits is a 10-class, 64-dim configuration calibrated so that a
// small fp32 MLP lands in the mid-90s while device non-idealities (coarse
// steps, update asymmetry) produce clearly visible degradation — the
// contrast experiments C1–C3 are about.
func DefaultDigits() DigitsConfig {
	return DigitsConfig{Classes: 10, Dim: 64, PerClass: 220, Noise: 0.8, Separation: 1.0}
}

// Digits generates the synthetic digit-classification dataset. Each class
// has a fixed random prototype in [-sep, sep]^Dim with a sparse active-pixel
// structure (like a digit's stroke support); samples are the prototype plus
// i.i.d. Gaussian noise, clamped to a bounded range like pixel intensities.
func Digits(cfg DigitsConfig, rng *rngutil.Source) *Classification {
	protoRng := rng.Child("prototypes")
	sampleRng := rng.Child("samples")
	protos := make([]tensor.Vector, cfg.Classes)
	for c := range protos {
		p := make(tensor.Vector, cfg.Dim)
		for i := range p {
			// ~40 % of "pixels" active per class, like stroke support.
			if protoRng.Bernoulli(0.4) {
				p[i] = protoRng.Uniform(0.5*cfg.Separation, cfg.Separation)
			}
		}
		protos[c] = p
	}
	ds := &Classification{Classes: cfg.Classes, Dim: cfg.Dim}
	for c := 0; c < cfg.Classes; c++ {
		for k := 0; k < cfg.PerClass; k++ {
			x := protos[c].Clone()
			for i := range x {
				x[i] += sampleRng.Normal(0, cfg.Noise)
			}
			x.Clamp(-1.5*cfg.Separation, 1.5*cfg.Separation)
			ds.X = append(ds.X, x)
			ds.Y = append(ds.Y, c)
		}
	}
	ds.Shuffle(rng.Child("shuffle"))
	return ds
}
