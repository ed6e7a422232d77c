package dataset

import (
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

func TestDigitsShapeAndDeterminism(t *testing.T) {
	cfg := DigitsConfig{Classes: 4, Dim: 16, PerClass: 10, Noise: 0.3, Separation: 1}
	a := Digits(cfg, rngutil.New(1))
	b := Digits(cfg, rngutil.New(1))
	if a.Len() != 40 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels not deterministic")
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("features not deterministic")
			}
		}
	}
	c := Digits(cfg, rngutil.New(2))
	diff := false
	for i := range a.X {
		if a.Y[i] != c.Y[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds should differ")
	}
}

func TestDigitsAllClassesPresent(t *testing.T) {
	ds := Digits(DefaultDigits(), rngutil.New(3))
	seen := make(map[int]int)
	for _, y := range ds.Y {
		if y < 0 || y >= ds.Classes {
			t.Fatalf("label %d out of range", y)
		}
		seen[y]++
	}
	if len(seen) != ds.Classes {
		t.Fatalf("only %d classes present", len(seen))
	}
}

func TestDigitsNearestPrototypeSeparable(t *testing.T) {
	// Classes should be separable by a nearest-class-mean rule well above
	// chance; this is what makes the dataset a meaningful MNIST stand-in.
	ds := Digits(DefaultDigits(), rngutil.New(5))
	means := make([]tensor.Vector, ds.Classes)
	counts := make([]int, ds.Classes)
	for i := range means {
		means[i] = tensor.NewVector(ds.Dim)
	}
	for i, x := range ds.X {
		means[ds.Y[i]].Add(x)
		counts[ds.Y[i]]++
	}
	for c := range means {
		means[c].Scale(1 / float64(counts[c]))
	}
	correct := 0
	for i, x := range ds.X {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			d := tensor.EuclideanDistance(x, means[c])
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(ds.Len())
	if acc < 0.85 {
		t.Fatalf("nearest-mean accuracy %v; dataset too hard", acc)
	}
}

func TestSplit(t *testing.T) {
	ds := &Classification{Classes: 1, Dim: 1}
	for i := 0; i < 100; i++ {
		ds.X = append(ds.X, tensor.Vector{float64(i)})
		ds.Y = append(ds.Y, 0)
	}
	train, test := ds.Split(0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
}

func TestFewShotUniverse(t *testing.T) {
	u := NewFewShotUniverse(DefaultFewShot(), rngutil.New(7))
	if len(u.Protos) != 200 {
		t.Fatalf("protos = %d", len(u.Protos))
	}
	for _, p := range u.Protos {
		if math.Abs(p.Norm2()-1) > 1e-9 {
			t.Fatal("prototypes must be unit norm")
		}
	}
}

func TestSampleEpisodeShape(t *testing.T) {
	u := NewFewShotUniverse(DefaultFewShot(), rngutil.New(9))
	ep := u.SampleEpisode(5, 1, 3)
	if len(ep.Support) != 5 || len(ep.Query) != 15 {
		t.Fatalf("episode sizes %d/%d", len(ep.Support), len(ep.Query))
	}
	seen := map[int]bool{}
	for _, l := range ep.SupportLabels {
		seen[l] = true
	}
	if len(seen) != 5 {
		t.Fatal("support must contain all 5 classes")
	}
	for _, l := range ep.QueryLabels {
		if l < 0 || l >= 5 {
			t.Fatalf("query label %d out of range", l)
		}
	}
}

func TestEpisodeCosineBaselineIsStrong(t *testing.T) {
	// With default calibration, 1-NN cosine on 5-way 1-shot should exceed 95%.
	u := NewFewShotUniverse(DefaultFewShot(), rngutil.New(11))
	correct, total := 0, 0
	for e := 0; e < 50; e++ {
		ep := u.SampleEpisode(5, 1, 2)
		for qi, q := range ep.Query {
			best, bestSim := -1, -2.0
			for si, s := range ep.Support {
				if sim := tensor.CosineSimilarity(q, s); sim > bestSim {
					best, bestSim = ep.SupportLabels[si], sim
				}
			}
			if best == ep.QueryLabels[qi] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Fatalf("cosine 5w1s baseline = %v, calibration broken", acc)
	}
}

func TestEpisodePanicsWhenTooManyWays(t *testing.T) {
	u := NewFewShotUniverse(FewShotConfig{Classes: 3, Dim: 8, Noise: 0.1}, rngutil.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	u.SampleEpisode(5, 1, 1)
}

func TestClickLogShapes(t *testing.T) {
	cfg := DefaultClickLog()
	log := NewClickLog(cfg, 100, rngutil.New(17))
	if len(log.Samples) != 100 {
		t.Fatalf("samples = %d", len(log.Samples))
	}
	for _, s := range log.Samples {
		if len(s.Dense) != cfg.DenseDim {
			t.Fatal("dense dim wrong")
		}
		if len(s.Sparse) != len(cfg.TableSizes) {
			t.Fatal("table count wrong")
		}
		for t2, idxs := range s.Sparse {
			if len(idxs) != cfg.LookupsPer {
				t.Fatal("lookup count wrong")
			}
			for _, ix := range idxs {
				if ix < 0 || ix >= cfg.TableSizes[t2] {
					t.Fatalf("index %d out of table %d range", ix, t2)
				}
			}
		}
		if s.Click != 0 && s.Click != 1 {
			t.Fatal("click must be binary")
		}
	}
}

func TestClickLogZipfSkew(t *testing.T) {
	// Under Zipf, the most popular row should absorb far more than uniform share.
	cfg := DefaultClickLog()
	log := NewClickLog(cfg, 2000, rngutil.New(19))
	counts := map[int]int{}
	accesses := 0
	for _, s := range log.Samples {
		for _, ix := range s.Sparse[0] {
			counts[ix]++
			accesses++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniformShare := float64(accesses) / float64(cfg.TableSizes[0])
	if float64(max) < 10*uniformShare {
		t.Fatalf("access pattern not skewed: max=%d uniform=%v", max, uniformShare)
	}
}

func TestClickLogCTRReasonable(t *testing.T) {
	log := NewClickLog(DefaultClickLog(), 2000, rngutil.New(21))
	ctr := log.CTR()
	if ctr < 0.2 || ctr > 0.8 {
		t.Fatalf("CTR = %v, labels degenerate", ctr)
	}
}
