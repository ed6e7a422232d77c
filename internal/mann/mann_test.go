package mann

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/quant"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

func TestMetricStrings(t *testing.T) {
	for m, want := range map[Metric]string{
		Cosine: "cosine", L1: "l1", L2: "l2", Linf: "linf", LinfL2: "linf+l2",
	} {
		if m.String() != want {
			t.Errorf("String = %q, want %q", m.String(), want)
		}
	}
}

func TestMetricScores(t *testing.T) {
	a := tensor.Vector{0, 0}
	b := tensor.Vector{3, 4}
	if got := L2.Score(a, b); got != -5 {
		t.Errorf("L2 score = %v", got)
	}
	if got := L1.Score(a, b); got != -7 {
		t.Errorf("L1 score = %v", got)
	}
	if got := Linf.Score(a, b); got != -4 {
		t.Errorf("Linf score = %v", got)
	}
	if got := Cosine.Score(tensor.Vector{1, 0}, tensor.Vector{2, 0}); math.Abs(got-1) > 1e-9 {
		t.Errorf("Cosine score = %v", got)
	}
}

func TestNearestAllMetrics(t *testing.T) {
	keys := []tensor.Vector{{1, 0}, {0, 1}, {0.9, 0.1}}
	q := tensor.Vector{1, 0.05}
	for _, m := range []Metric{Cosine, L1, L2, Linf, LinfL2} {
		got := m.Nearest(q, keys)
		if got != 0 && got != 2 { // both are plausible nearest; never key 1
			t.Errorf("%v.Nearest = %d", m, got)
		}
	}
	if Cosine.Nearest(q, nil) != -1 {
		t.Error("empty keys should return -1")
	}
}

func TestKVMemoryBasics(t *testing.T) {
	m := NewKVMemory(3, Cosine)
	if m.Read(tensor.Vector{1, 0}) != -1 {
		t.Fatal("empty memory should return -1")
	}
	m.Write(tensor.Vector{1, 0}, 7)
	if m.Read(tensor.Vector{0.9, 0.1}) != 7 {
		t.Fatal("retrieval failed")
	}
	if len(m.Keys) != 1 {
		t.Fatalf("Len = %d", len(m.Keys))
	}
}

func TestKVMemoryRefreshSameClass(t *testing.T) {
	m := NewKVMemory(4, Cosine)
	m.Write(tensor.Vector{1, 0}, 1)
	m.Write(tensor.Vector{0.8, 0.2}, 1) // same class, near: refresh not insert
	if len(m.Keys) != 1 {
		t.Fatalf("refresh should not grow memory: len=%d", len(m.Keys))
	}
	// Key moved toward the new example.
	if m.Keys[0][1] == 0 {
		t.Fatal("refresh should average the key")
	}
}

func TestKVMemoryEvictsOldest(t *testing.T) {
	m := NewKVMemory(2, L2)
	m.Write(tensor.Vector{0, 0}, 0)
	m.Write(tensor.Vector{10, 10}, 1)
	m.Write(tensor.Vector{-10, 10}, 2) // evicts class 0 (oldest)
	if len(m.Keys) != 2 {
		t.Fatalf("capacity exceeded: %d", len(m.Keys))
	}
	if m.Read(tensor.Vector{0, 0}) == 0 {
		t.Fatal("oldest entry should have been evicted")
	}
}

func TestKVMemoryCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKVMemory(0, Cosine)
}

// --- Few-shot retrieval accuracy (C4 / F5 shape at test scale) ---

func fewshotUniverse() *dataset.FewShotUniverse {
	return dataset.NewFewShotUniverse(dataset.DefaultFewShot(), rngutil.New(7))
}

func quickEval(t *testing.T, r Retriever) float64 {
	t.Helper()
	u := fewshotUniverse()
	return EvaluateFewShot(u, r, EvalConfig{
		NWay: 5, KShot: 1, NQuery: 2, Episodes: 25, MemoryEntries: 128, Seed: 11,
	})
}

func TestCosineBaselineNear99(t *testing.T) {
	acc := quickEval(t, &ExactRetriever{Metric: Cosine})
	if acc < 0.96 {
		t.Fatalf("fp32 cosine accuracy %v below the paper's ~99%% band", acc)
	}
}

func TestCombinedMetricBelowCosineButStrong(t *testing.T) {
	cos := quickEval(t, &ExactRetriever{Metric: Cosine})
	comb := quickEval(t, &QuantizedRetriever{Metric: LinfL2, Q: quant.New(4, 0.4)})
	if comb > cos {
		t.Fatalf("4-bit linf+l2 %v should not beat fp32 cosine %v", comb, cos)
	}
	if comb < 0.85 {
		t.Fatalf("4-bit linf+l2 %v collapsed; calibration broken", comb)
	}
}

func TestPureLinfWorstMetric(t *testing.T) {
	linf := quickEval(t, &QuantizedRetriever{Metric: Linf, Q: quant.New(4, 0.4)})
	l2 := quickEval(t, &QuantizedRetriever{Metric: L2, Q: quant.New(4, 0.4)})
	if linf >= l2 {
		t.Fatalf("pure L∞ %v should trail L2 %v (the motivation for combining)", linf, l2)
	}
}

func TestLSHApproachesCosine(t *testing.T) {
	cos := quickEval(t, &ExactRetriever{Metric: Cosine})
	lshAcc := quickEval(t, NewLSHRetriever(64, 512, rngutil.New(3)))
	if lshAcc < cos-0.08 {
		t.Fatalf("LSH-512 %v should approach cosine %v (Fig. 5 inset)", lshAcc, cos)
	}
}

func TestMorePlanesBetterLSH(t *testing.T) {
	small := quickEval(t, NewLSHRetriever(64, 32, rngutil.New(3)))
	big := quickEval(t, NewLSHRetriever(64, 512, rngutil.New(3)))
	if big <= small {
		t.Fatalf("512 planes %v should beat 32 planes %v", big, small)
	}
}

func TestCubeRetrieverFewLookups(t *testing.T) {
	u := fewshotUniverse()
	c := NewCubeRetriever(quant.New(4, 0.4), 64)
	acc := EvaluateFewShot(u, c, EvalConfig{
		NWay: 5, KShot: 1, NQuery: 2, Episodes: 10, MemoryEntries: 128, Seed: 13,
	})
	if acc < 0.85 {
		t.Fatalf("cube retriever accuracy %v too low", acc)
	}
	// Lookups per query in the final episode must be "a few", not M·D.
	perQuery := float64(c.Searches()) / 10.0
	if perQuery > 4 {
		t.Fatalf("%v TCAM lookups per query; expected a few", perQuery)
	}
}

func TestRetrieverNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, r := range []Retriever{
		&ExactRetriever{Metric: Cosine},
		&QuantizedRetriever{Metric: LinfL2, Q: quant.New(4, 0.4)},
		NewLSHRetriever(8, 16, rngutil.New(1)),
		NewCubeRetriever(quant.New(4, 0.4), 8),
	} {
		if names[r.Name()] {
			t.Fatalf("duplicate retriever name %q", r.Name())
		}
		names[r.Name()] = true
	}
}

func TestEvaluateFewShotEmptyConfig(t *testing.T) {
	u := fewshotUniverse()
	if acc := EvaluateFewShot(u, &ExactRetriever{Metric: Cosine}, EvalConfig{}); acc != 0 {
		t.Fatalf("zero-episode eval should be 0, got %v", acc)
	}
}

// Lifelong learning: accuracy must grow with memory capacity once the
// class stream outgrows the memory (§IV-C's case for larger MANN memories).
func TestLifelongAccuracyGrowsWithCapacity(t *testing.T) {
	u := fewshotUniverse()
	const nClasses, perClass, queries = 60, 2, 150
	small := LifelongAccuracy(u, 16, nClasses, perClass, queries, 5)
	medium := LifelongAccuracy(u, 60, nClasses, perClass, queries, 5)
	large := LifelongAccuracy(u, 160, nClasses, perClass, queries, 5)
	if !(small < medium && medium <= large) {
		t.Fatalf("capacity curve not monotone: %v %v %v", small, medium, large)
	}
	if large < 0.9 {
		t.Fatalf("full-capacity lifelong accuracy %v too low", large)
	}
	if small > 0.55 {
		t.Fatalf("tiny memory should forget most classes, got %v", small)
	}
}
