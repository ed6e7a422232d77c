package serve

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// trainTestMLP builds a small digitally trained golden network plus its
// dataset for pipeline tests. The net must be trained to confident
// predictions: the canary grades analog softmax outputs against digital
// references, and a golden net sitting near its own decision boundaries
// would make programming residual alone look like divergence.
func trainTestMLP(seed uint64) (*nn.MLP, *dataset.Classification, *dataset.Classification) {
	rng := rngutil.New(seed)
	dcfg := dataset.DigitsConfig{Classes: 4, Dim: 12, PerClass: 50, Noise: 0.3, Separation: 2}
	ds := dataset.Digits(dcfg, rng.Child("data"))
	train, test := ds.Split(0.75)
	m := nn.NewMLP([]int{dcfg.Dim, 10, dcfg.Classes}, nn.TanhAct, nn.SoftmaxAct,
		nn.DenseFactory(rng.Child("weights")))
	for epoch := 0; epoch < 12; epoch++ {
		for i := range train.X {
			m.TrainStep(train.X[i], train.Y[i], 0.05)
		}
	}
	return m, train, test
}

func TestBreakerTransitions(t *testing.T) {
	pol := PolicyFull()
	h := NewHealth(pol)
	if h.State() != Healthy {
		t.Fatalf("fresh health state = %v, want healthy", h.State())
	}
	// Clean canaries keep it healthy.
	for i := 0; i < 5; i++ {
		if st := h.ObserveCanary(0); st != Healthy {
			t.Fatalf("clean canary %d moved state to %v", i, st)
		}
	}
	// Mild divergence degrades without quarantining.
	if st := h.ObserveCanary(0.2); st != Degraded {
		t.Fatalf("mild divergence gave %v, want degraded", st)
	}
	if h.State() == Quarantined {
		t.Fatal("degraded replica must stay in rotation")
	}
	// Heavy divergence quarantines; quarantine is sticky even if later
	// canaries would look clean.
	for i := 0; i < 4; i++ {
		h.ObserveCanary(0.9)
	}
	if st := h.State(); st != Quarantined {
		t.Fatalf("heavy divergence gave %v, want quarantined", st)
	}
	if st := h.ObserveCanary(0); st != Quarantined {
		t.Fatalf("quarantine must be sticky, got %v", st)
	}
	if h.State() != Quarantined {
		t.Fatal("quarantined replica must be out of rotation")
	}
	// Only the recalibration path re-admits.
	h.Readmit(0)
	if st := h.State(); st != Healthy {
		t.Fatalf("readmit(0) gave %v, want healthy", st)
	}
}

// TestCanaryFalsePositiveRate pins the canary probe's specificity: with no
// fault engine attached, programming residual alone must not flag
// divergence, or the watchdog would quarantine healthy replicas.
func TestCanaryFalsePositiveRate(t *testing.T) {
	golden, train, _ := trainTestMLP(11)
	pipe := NewMLPPipeline(golden, train.X[:8], DefaultMLPPipelineConfig(), nil, rngutil.New(77))
	var total float64
	const rounds = 40
	for i := 0; i < rounds; i++ {
		total += pipe.CanaryDivergence()
	}
	if rate := total / rounds; rate > 0.02 {
		t.Fatalf("MLP canary false-positive rate %.4f at zero faults, want <= 0.02", rate)
	}

	xcfg := DefaultXMannPipelineConfig()
	rng := rngutil.New(13)
	mem := tensor.NewMatrix(16, 8)
	for i := range mem.Data {
		mem.Data[i] = rng.Float64()
	}
	keys := make([]tensor.Vector, 8)
	for k := range keys {
		keys[k] = make(tensor.Vector, 8)
		for i := range keys[k] {
			keys[k][i] = rng.Float64()
		}
	}
	xp := NewXMannPipeline(mem, keys, xcfg, nil, rngutil.New(99))
	for i := 0; i < rounds; i++ {
		if div := xp.CanaryDivergence(); div != 0 {
			t.Fatalf("X-MANN canary divergence %.4f on ideal fault-free tiles, want 0", div)
		}
	}
}

// testCampaignConfig is a small-but-representative configuration for
// simulator tests.
func testCampaignConfig() CampaignConfig {
	cfg := DefaultCampaignConfig(4321, true)
	cfg.Duration = 0.6
	cfg.Rate = 250
	cfg.Levels = []float64{0, 1}
	return cfg
}

// TestSimDeterminism is the acceptance property of the R2 tables: the same
// seed renders the identical table, bit for bit.
func TestSimDeterminism(t *testing.T) {
	cfg := testCampaignConfig()
	a := FormatTable("mlp", MLPCampaign(cfg))
	b := FormatTable("mlp", MLPCampaign(cfg))
	if a != b {
		t.Fatalf("MLP campaign not deterministic:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "self-heal") {
		t.Fatalf("table missing self-heal arm:\n%s", a)
	}
	x := FormatTable("xmann", XMannCampaign(cfg))
	y := FormatTable("xmann", XMannCampaign(cfg))
	if x != y {
		t.Fatalf("X-MANN campaign not deterministic:\n--- first ---\n%s--- second ---\n%s", x, y)
	}
}

// TestSelfHealDominance pins the headline R2 claim at the default seed: the
// full self-healing policy strictly beats no-remediation on goodput AND
// accuracy at every non-zero fault level, for both pipelines.
func TestSelfHealDominance(t *testing.T) {
	cfg := DefaultCampaignConfig(1234, true)
	for name, results := range map[string][]ArmResult{
		"mlp":   MLPCampaign(cfg),
		"xmann": XMannCampaign(cfg),
	} {
		byLevel := map[float64]map[string]*Metrics{}
		for i := range results {
			r := &results[i]
			if byLevel[r.Level] == nil {
				byLevel[r.Level] = map[string]*Metrics{}
			}
			byLevel[r.Level][r.Policy] = &r.M
		}
		for level, arms := range byLevel {
			if level == 0 {
				continue
			}
			none, full := arms["none"], arms["self-heal"]
			if none == nil || full == nil {
				t.Fatalf("%s level %.2f: missing arms", name, level)
			}
			if full.Goodput() <= none.Goodput() {
				t.Errorf("%s level %.2f: self-heal goodput %.4f does not beat none %.4f",
					name, level, full.Goodput(), none.Goodput())
			}
			if full.Accuracy() <= none.Accuracy() {
				t.Errorf("%s level %.2f: self-heal accuracy %.4f does not beat none %.4f",
					name, level, full.Accuracy(), none.Accuracy())
			}
		}
	}
}

// TestCheckArmsNamesViolator pins the guard the campaign binaries run
// before printing: balanced arms pass, and an arm whose dispositions do
// not add up to its offered load is reported by pipeline/level/policy.
func TestCheckArmsNamesViolator(t *testing.T) {
	var ok, bad Metrics
	ok.Offered, ok.Completed, ok.Shed, ok.Expired = 5, 3, 1, 1
	bad.Offered, bad.Completed, bad.Shed = 5, 3, 1
	arms := []ArmResult{{Policy: "none", Level: 0.1, M: ok}}
	if err := CheckArms("mlp", arms); err != nil {
		t.Fatalf("balanced arms rejected: %v", err)
	}
	arms = append(arms, ArmResult{Policy: "self-heal", Level: 0.25, M: bad})
	err := CheckArms("mlp", arms)
	if err == nil || !strings.HasPrefix(err.Error(), "mlp/0.25/self-heal: ") {
		t.Fatalf("unbalanced arm: err = %v, want it named mlp/0.25/self-heal", err)
	}
}

// TestWatchdogReadmitsAfterDriftRecal exercises the full heal loop on
// recoverable damage: a drift-only campaign must quarantine replicas, and
// recalibration (reprogramming from golden) must bring them back.
func TestWatchdogReadmitsAfterDriftRecal(t *testing.T) {
	golden, train, test := trainTestMLP(21)
	pol := PolicyFull()
	plan := faults.Plan{DriftBurstEvery: 25, DriftBurstDt: 40}

	var reps []*Replica
	for r := 0; r < 3; r++ {
		eng := faults.NewEngine(plan, rngutil.New(uint64(300+r)))
		pipe := NewMLPPipeline(golden, train.X[:8], DefaultMLPPipelineConfig(), eng.Attach,
			rngutil.New(uint64(400+r)))
		reps = append(reps, NewReplica(r, pipe, pol))
	}
	var reqs []SimRequest
	for i := range test.X {
		reqs = append(reqs, SimRequest{X: test.X[i], Want: test.Y[i]})
	}
	m := RunSim(SimConfig{
		Policy:   pol,
		Lat:      DefaultLatencyModel(),
		Duration: 1.5,
		Rate:     250,
		Requests: reqs,
		Fallback: func(x tensor.Vector) tensor.Vector { return golden.Forward(x).Clone() },
		RNG:      rngutil.New(5),
	}, reps)
	if m.Quarantines == 0 {
		t.Fatal("drift campaign never tripped the watchdog")
	}
	if m.Readmits == 0 {
		t.Fatalf("no quarantined replica was re-admitted after recalibration (quar %d, recals %d)",
			m.Quarantines, m.Recals)
	}
}

// TestSimLoadShedding pins the bounded-queue behaviour: overload must shed
// rather than queue into certain deadline misses.
func TestSimLoadShedding(t *testing.T) {
	golden, train, test := trainTestMLP(31)
	pol := PolicyNone()
	pol.QueueCap = 4
	var reps []*Replica
	pipe := NewMLPPipeline(golden, train.X[:4], DefaultMLPPipelineConfig(), nil, rngutil.New(8))
	reps = append(reps, NewReplica(0, pipe, pol))
	var reqs []SimRequest
	for i := range test.X {
		reqs = append(reqs, SimRequest{X: test.X[i], Want: test.Y[i]})
	}
	lat := DefaultLatencyModel()
	m := RunSim(SimConfig{
		Policy: pol, Lat: lat,
		Duration: 0.3, Rate: 3000, // ~3x a single replica's capacity
		Requests: reqs,
		RNG:      rngutil.New(6),
	}, reps)
	if m.Shed == 0 {
		t.Fatalf("overloaded single-replica service shed nothing: %+v", m)
	}
	// Every offered request must be accounted for: answered, shed, expired,
	// or unservable.
	if m.Completed+m.Shed+m.Expired+m.Unavailable < m.Offered {
		t.Fatalf("requests unaccounted for: %+v", m)
	}
}
