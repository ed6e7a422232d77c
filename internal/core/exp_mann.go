package core

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/cam"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/mann"
	"repro/internal/perfmodel"
	"repro/internal/quant"
	"repro/internal/rngutil"
	"repro/internal/xmann"
)

func init() {
	register(Experiment{
		ID:    "T1",
		Title: "X-MANN vs GPU on the MANN benchmark suite (§III-B)",
		PaperClaim: "23.7x-45.7x speedup and 75.1x-267.1x energy reduction over a " +
			"state-of-the-art GPU across benchmarks with diverse memory capacities",
		Run: runT1,
	})
	register(Experiment{
		ID:    "C4",
		Title: "Few-shot retrieval accuracy: fp32 cosine vs 4-bit fixed-point metrics (§IV-B.1)",
		PaperClaim: "combined Linf+L2 at 4-bit with 512 memory entries reaches 96.00% on " +
			"Omniglot 5-way 1-shot vs 99.06% for fp32 cosine; a few TCAM lookups replace M*D multiplies",
		Run: runC4,
	})
	register(Experiment{
		ID:    "F5",
		Title: "Cosine vs LSH-Hamming retrieval across few-shot settings (Fig. 5 inset)",
		PaperClaim: "LSH-based TCAM retrieval approaches (sometimes matches) cosine accuracy; " +
			"the gap grows for harder settings; plane count is tuned until accuracy saturates",
		Run: runF5,
	})
	register(Experiment{
		ID:         "C5",
		Title:      "Memory-search energy/latency: 16T CMOS TCAM vs GPU+DRAM (§IV-B.2)",
		PaperClaim: "24x energy and 2582x latency reduction for the memory search operation",
		Run:        runC5,
	})
	register(Experiment{
		ID:    "C6",
		Title: "2-FeFET TCAM vs 16T CMOS TCAM (§IV-C)",
		PaperClaim: "a further 1.1x latency and 2.4x energy reduction, with an 8x smaller cell " +
			"enabling larger MANN memories",
		Run: runC6,
	})
}

func runT1(w io.Writer, seed uint64, quick bool) error {
	_ = seed
	suite := xmann.Suite()
	if quick {
		suite = suite[:3]
	}
	fmt.Fprintf(w, "%-16s %10s %12s %12s %10s %10s\n",
		"benchmark", "memory", "GPU time", "X-MANN time", "speedup", "energy x")
	for _, c := range xmann.Compare(suite, xmann.DefaultParams(), perfmodel.DefaultGPU()) {
		fmt.Fprintf(w, "%-16s %8.1fMB %10.3gs %10.3gs %9.1fx %9.1fx\n",
			c.Workload.Name, float64(c.Workload.MemoryBytes())/1e6,
			c.GPU.Latency, c.XMANN.Latency, c.Speedup, c.EnergyRatio)
	}
	return nil
}

// fewshotEval builds the evaluation setup shared by C4 and F5.
func fewshotEval(seed uint64, quick bool) (*dataset.FewShotUniverse, mann.EvalConfig) {
	u := dataset.NewFewShotUniverse(dataset.DefaultFewShot(), rngutil.New(seed))
	cfg := mann.EvalConfig{
		NWay: 5, KShot: 1, NQuery: 3, Episodes: 100, MemoryEntries: 512, Seed: seed + 1,
	}
	if quick {
		cfg.Episodes = 15
		cfg.MemoryEntries = 128
	}
	return u, cfg
}

func runC4(w io.Writer, seed uint64, quick bool) error {
	u, cfg := fewshotEval(seed, quick)
	fmt.Fprintf(w, "5-way 1-shot, %d-entry memory, %d episodes\n\n", cfg.MemoryEntries, cfg.Episodes)
	fmt.Fprintf(w, "%-24s %s\n", "retrieval scheme", "accuracy")

	retrievers := []mann.Retriever{
		&mann.ExactRetriever{Metric: mann.Cosine},
		&mann.QuantizedRetriever{Metric: mann.L2, Q: quant.New(4, 0.4)},
		&mann.QuantizedRetriever{Metric: mann.L1, Q: quant.New(4, 0.4)},
		&mann.QuantizedRetriever{Metric: mann.Linf, Q: quant.New(4, 0.4)},
		&mann.QuantizedRetriever{Metric: mann.LinfL2, Q: quant.New(4, 0.4)},
		&mann.QuantizedRetriever{Metric: mann.LinfL2, Q: quant.New(2, 0.4)},
		&mann.QuantizedRetriever{Metric: mann.LinfL2, Q: quant.New(8, 0.4)},
	}
	for _, r := range retrievers {
		fmt.Fprintf(w, "%-24s %.4f\n", r.Name(), mann.EvaluateFewShot(u, r, cfg))
	}

	cube := mann.NewCubeRetriever(quant.New(4, 0.4), u.Cfg.Dim)
	acc := mann.EvaluateFewShot(u, cube, cfg)
	queriesLastEpisode := float64(cfg.NWay * cfg.NQuery)
	fmt.Fprintf(w, "%-24s %.4f  (%.1f TCAM lookups/query vs %d multiplies for cosine)\n",
		cube.Name(), acc, float64(cube.Searches())/queriesLastEpisode,
		cfg.MemoryEntries*u.Cfg.Dim)
	return nil
}

func runF5(w io.Writer, seed uint64, quick bool) error {
	u, cfg := fewshotEval(seed, quick)
	settings := []struct{ nway, kshot int }{{5, 1}, {5, 5}, {20, 1}, {20, 5}}
	fmt.Fprintf(w, "%-10s %-12s %-12s %s\n", "setting", "cosine", "lsh-512", "gap")
	for _, s := range settings {
		c := cfg
		c.NWay, c.KShot = s.nway, s.kshot
		cos := mann.EvaluateFewShot(u, &mann.ExactRetriever{Metric: mann.Cosine}, c)
		lshAcc := mann.EvaluateFewShot(u, mann.NewLSHRetriever(u.Cfg.Dim, 512, rngutil.New(seed+3)), c)
		fmt.Fprintf(w, "%dw%ds%-6s %-12.4f %-12.4f %+.4f\n", s.nway, s.kshot, "", cos, lshAcc, cos-lshAcc)
	}

	// Plane-count tuning curve (the paper: tuned until accuracy saturates).
	fmt.Fprintf(w, "\nLSH plane-count tuning (5-way 1-shot):\n")
	planes := []int{16, 32, 64, 128, 256, 512, 1024}
	if quick {
		planes = []int{32, 128, 512}
	}
	for _, p := range planes {
		acc := mann.EvaluateFewShot(u, mann.NewLSHRetriever(u.Cfg.Dim, p, rngutil.New(seed+3)), cfg)
		fmt.Fprintf(w, "  %4d planes: %.4f\n", p, acc)
	}
	return nil
}

func runC5(w io.Writer, seed uint64, quick bool) error {
	engine := cam.Engine{Tech: cam.CMOS16T(), Geo: cam.DefaultGeometry()}
	gpu := perfmodel.DefaultGPU()
	sizes := []int{512, 2048, 8192, 65536}
	if quick {
		sizes = []int{512, 8192}
	}
	const d = 128
	fmt.Fprintf(w, "%-8s %14s %14s %12s %12s\n", "entries", "GPU search", "TCAM search", "latency x", "energy x")
	for _, m := range sizes {
		base := cam.GPUSearchBaseline(m, d, gpu)
		tc := engine.SearchCost(m, d)
		fmt.Fprintf(w, "%-8d %11.3gs %12.3gs %11.0fx %11.1fx\n",
			m, base.Latency, tc.Latency, tc.Speedup(base), tc.EnergyRatio(base))
	}
	fmt.Fprintf(w, "\n(LSH signature cost equals the dense layer it replaces: %d MACs)\n",
		lsh.NewHasher(64, 128, rngutil.New(1)).MACsPerSignature())

	// k-NN retrieval: binary match comparators (§IV-B.1) rank one
	// neighbour per search; degree-of-match sensing (§IV-B.2) reads every
	// row's mismatch count in one search and returns the same neighbours.
	const rows, width, k = 512, 64, 5
	t := cam.New(width)
	rng := rngutil.New(seed).Child("knn")
	for i := 0; i < rows; i++ {
		t.Store(cam.RowFromUint(rng.BernoulliMask(0.5, width), width))
	}
	q := cam.RowFromUint(rng.BernoulliMask(0.5, width), width)
	binary := t.KNearestBinary(q, k)
	nBinary := t.Searches
	degree := t.KNearestDegree(q, k)
	nDegree := t.Searches - nBinary
	one := engine.SearchCost(rows, width)
	fmt.Fprintf(w, "\nk-NN, k=%d of %d %d-bit rows: both modes return the same neighbours: %v\n",
		k, rows, width, slices.Equal(binary, degree))
	fmt.Fprintf(w, "%-18s %9s %12s %12s\n", "mode", "searches", "latency", "energy")
	for _, r := range []struct {
		name     string
		searches int64
	}{{"binary comparator", nBinary}, {"degree-of-match", nDegree}} {
		fmt.Fprintf(w, "%-18s %9d %11.3gs %11.3gJ\n",
			r.name, r.searches, float64(r.searches)*one.Latency, float64(r.searches)*one.Energy)
	}
	return nil
}

func runC6(w io.Writer, seed uint64, quick bool) error {
	_, _ = seed, quick
	geo := cam.DefaultGeometry()
	cm := cam.Engine{Tech: cam.CMOS16T(), Geo: geo}
	fe := cam.Engine{Tech: cam.FeFET2T(), Geo: geo}
	const m, d = 512, 128
	cc := cm.SearchCost(m, d)
	fc := fe.SearchCost(m, d)
	fmt.Fprintf(w, "%-12s %12s %12s %14s\n", "cell", "latency", "energy", "transistors")
	fmt.Fprintf(w, "%-12s %10.3gs %10.3gJ %14d\n", cm.Tech.Name, cc.Latency, cc.Energy, cm.Transistors(m, d))
	fmt.Fprintf(w, "%-12s %10.3gs %10.3gJ %14d\n", fe.Tech.Name, fc.Latency, fc.Energy, fe.Transistors(m, d))
	fmt.Fprintf(w, "gain: %.2fx latency, %.2fx energy, %.0fx fewer transistors\n",
		cc.Latency/fc.Latency, cc.Energy/fc.Energy,
		float64(cm.Transistors(m, d))/float64(fe.Transistors(m, d)))
	fmt.Fprintf(w, "same transistor budget holds %.0fx more memory entries (larger MANN memories, §IV-C)\n",
		float64(cm.Tech.TransistorsPerCell)/float64(fe.Tech.TransistorsPerCell))

	// Why capacity matters: lifelong-learning accuracy vs memory entries
	// (age-based eviction forgets early classes once the stream outgrows
	// the memory).
	u := dataset.NewFewShotUniverse(dataset.DefaultFewShot(), rngutil.New(seed))
	nClasses, perClass, queries := 120, 2, 300
	if quick {
		nClasses, queries = 40, 100
	}
	fmt.Fprintf(w, "\nlifelong retrieval accuracy vs memory capacity (%d-class stream):\n", nClasses)
	for _, capacity := range []int{16, 32, 64, 128, 256} {
		acc := mann.LifelongAccuracy(u, capacity, nClasses, perClass, queries, seed+7)
		fmt.Fprintf(w, "  %4d entries: %.3f\n", capacity, acc)
	}
	return nil
}
