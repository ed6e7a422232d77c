// Package recsys implements the neural recommendation models of §V
// (Fig. 6): dense features through a bottom MLP, categorical features
// through sparsely indexed embedding tables with multi-hot pooling, feature
// interaction by concatenation, and a top (predictor) MLP emitting a
// click-through-rate. It also provides the workload characterization the
// paper discusses — per-operator FLOPs, bytes, arithmetic intensity,
// roofline placement, and model-capacity accounting — via profile.go.
package recsys

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// EmbeddingTable maps sparse categorical indices to learned dense vectors.
type EmbeddingTable struct {
	Rows, Dim int
	W         *tensor.Matrix
}

// NewEmbeddingTable builds a table with small random initialization.
func NewEmbeddingTable(rows, dim int, rng *rngutil.Source) *EmbeddingTable {
	t := &EmbeddingTable{Rows: rows, Dim: dim, W: tensor.NewMatrix(rows, dim)}
	scale := 1 / math.Sqrt(float64(dim))
	for i := range t.W.Data {
		t.W.Data[i] = rng.Uniform(-scale, scale)
	}
	return t
}

// Lookup gathers and sum-pools the rows for a multi-hot index list — the
// low-compute-intensity, irregular-access operator at the heart of §V-B.
func (t *EmbeddingTable) Lookup(idxs []int) tensor.Vector {
	out := tensor.NewVector(t.Dim)
	for _, ix := range idxs {
		if ix < 0 || ix >= t.Rows {
			panic(fmt.Sprintf("recsys: index %d out of table with %d rows", ix, t.Rows))
		}
		out.Add(t.W.Row(ix))
	}
	return out
}

// ApplyGrad scatters the pooled-vector gradient back to the touched rows.
func (t *EmbeddingTable) ApplyGrad(idxs []int, grad tensor.Vector, lr float64) {
	for _, ix := range idxs {
		row := t.W.Row(ix)
		row.AXPY(-lr, grad)
	}
}

// Config specifies a recommendation-model architecture (Fig. 6).
type Config struct {
	Name       string
	DenseDim   int
	BottomMLP  []int // hidden sizes; output of the last is the dense feature
	EmbDim     int
	TableSizes []int
	LookupsPer int   // multi-hot indices per table
	TopMLP     []int // hidden sizes of the predictor stack
}

// Model is a runnable, trainable recommendation model.
type Model struct {
	Cfg    Config
	Bottom *nn.MLP
	Tables []*EmbeddingTable
	Top    *nn.MLP
}

// NewModel builds the model with fresh parameters.
func NewModel(cfg Config, rng *rngutil.Source) *Model {
	if len(cfg.BottomMLP) == 0 || len(cfg.TopMLP) == 0 {
		panic("recsys: config needs bottom and top MLP sizes")
	}
	m := &Model{Cfg: cfg}
	bottomSizes := append([]int{cfg.DenseDim}, cfg.BottomMLP...)
	m.Bottom = nn.NewMLP(bottomSizes, nn.ReLUAct, nn.ReLUAct, nn.DenseFactory(rng.Child("bottom")))
	for ti, rows := range cfg.TableSizes {
		m.Tables = append(m.Tables, NewEmbeddingTable(rows, cfg.EmbDim, rng.Child(fmt.Sprintf("table%d", ti))))
	}
	interDim := cfg.BottomMLP[len(cfg.BottomMLP)-1] + len(cfg.TableSizes)*cfg.EmbDim
	topSizes := append([]int{interDim}, cfg.TopMLP...)
	topSizes = append(topSizes, 1)
	m.Top = nn.NewMLP(topSizes, nn.ReLUAct, nn.SigmoidAct, nn.DenseFactory(rng.Child("top")))
	return m
}

// Forward returns the predicted click probability for one sample.
func (m *Model) Forward(s dataset.ClickSample) float64 {
	return m.forward(s)[0]
}

func (m *Model) forward(s dataset.ClickSample) tensor.Vector {
	dense := m.Bottom.Forward(s.Dense)
	// Feature interaction: concatenate dense output with pooled embeddings.
	inter := make(tensor.Vector, 0, len(dense)+len(m.Tables)*m.Cfg.EmbDim)
	inter = append(inter, dense...)
	for ti, t := range m.Tables {
		inter = append(inter, t.Lookup(s.Sparse[ti])...)
	}
	return m.Top.Forward(inter)
}

// TrainStep performs one SGD step with binary cross-entropy and returns the
// pre-update loss.
func (m *Model) TrainStep(s dataset.ClickSample, lr float64) float64 {
	pred := m.forward(s)
	loss := nn.BCE(pred, tensor.Vector{s.Click})
	// dBCE/dp for sigmoid output combines to (p - y) on the pre-activation;
	// with the sigmoid layer's own prime applied in Backward, feed dL/dp.
	p := math.Min(math.Max(pred[0], 1e-12), 1-1e-12)
	dp := (p - s.Click) / (p * (1 - p))
	dInter := m.Top.Backward(tensor.Vector{dp}, lr)

	denseLen := m.Cfg.BottomMLP[len(m.Cfg.BottomMLP)-1]
	m.Bottom.Learn(dInter[:denseLen], lr)
	off := denseLen
	for ti, t := range m.Tables {
		t.ApplyGrad(s.Sparse[ti], dInter[off:off+m.Cfg.EmbDim], lr)
		off += m.Cfg.EmbDim
	}
	return loss
}

// LogLoss evaluates mean BCE over samples.
func (m *Model) LogLoss(samples []dataset.ClickSample) float64 {
	var sum float64
	for _, s := range samples {
		sum += nn.BCE(tensor.Vector{m.Forward(s)}, tensor.Vector{s.Click})
	}
	return sum / float64(len(samples))
}

// Accuracy evaluates thresholded click accuracy over samples.
func (m *Model) Accuracy(samples []dataset.ClickSample) float64 {
	correct := 0
	for _, s := range samples {
		pred := 0.0
		if m.Forward(s) > 0.5 {
			pred = 1
		}
		if pred == s.Click {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
