package analog

import (
	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// DropConnectMat wraps a digital dense matrix and randomly severs a
// fraction P of its connections on every training forward pass — the
// hardware-aware training of §II-B.5 (paper ref. [33]) that makes the
// learned network robust to the stuck/non-yielding crosspoints it will
// encounter when programmed into a real analog array.
type DropConnectMat struct {
	Inner *nn.DenseMat
	P     float64
	rng   *rngutil.Source
	mask  []bool // true = dropped, resampled each training Forward
	Train bool   // when false, behaves exactly like the inner matrix
}

// NewDropConnect wraps inner with drop probability p.
func NewDropConnect(inner *nn.DenseMat, p float64, rng *rngutil.Source) *DropConnectMat {
	return &DropConnectMat{
		Inner: inner,
		P:     p,
		rng:   rng,
		mask:  make([]bool, inner.Rows()*inner.Cols()),
		Train: true,
	}
}

// Rows implements nn.Mat.
func (d *DropConnectMat) Rows() int { return d.Inner.Rows() }

// Cols implements nn.Mat.
func (d *DropConnectMat) Cols() int { return d.Inner.Cols() }

// Forward implements nn.Mat. In training mode a fresh connection mask is
// sampled and applied; the same mask gates Backward and Update until the
// next Forward, so one SGD step sees a consistent sub-network.
//
// No inverted-dropout rescaling is applied: the network is destined for
// arrays whose stuck-at-zero fraction matches the training drop rate, so
// the expected connection survival at inference equals that of training.
func (d *DropConnectMat) Forward(x tensor.Vector) tensor.Vector {
	if !d.Train {
		return d.Inner.Forward(x)
	}
	m := d.Inner.M
	y := make(tensor.Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		base := i * m.Cols
		var s float64
		for j, w := range row {
			d.mask[base+j] = d.rng.Bernoulli(d.P)
			if !d.mask[base+j] {
				s += w * x[j]
			}
		}
		y[i] = s
	}
	return y
}

// Backward implements nn.Mat with the current mask applied.
func (d *DropConnectMat) Backward(dd tensor.Vector) tensor.Vector {
	if !d.Train {
		return d.Inner.Backward(dd)
	}
	m := d.Inner.M
	y := make(tensor.Vector, m.Cols)
	for i := 0; i < m.Rows; i++ {
		di := dd[i]
		if di == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		base := i * m.Cols
		for j, w := range row {
			if !d.mask[base+j] {
				y[j] += w * di
			}
		}
	}
	return y
}

// SkipBackward implements nn.BackwardSkipper: neither the masked nor the
// exact Backward draws from the mask stream, so only the shape check stays.
func (d *DropConnectMat) SkipBackward(dd tensor.Vector) { d.Inner.SkipBackward(dd) }

// Update implements nn.Mat: dropped connections receive no gradient.
func (d *DropConnectMat) Update(scale float64, u, v tensor.Vector) {
	if !d.Train {
		d.Inner.Update(scale, u, v)
		return
	}
	m := d.Inner.M
	for i := 0; i < m.Rows; i++ {
		su := scale * u[i]
		if su == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		base := i * m.Cols
		for j := range row {
			if !d.mask[base+j] {
				row[j] += su * v[j]
			}
		}
	}
}

var _ nn.BackwardSkipper = (*DropConnectMat)(nil)

// DropConnectFactory returns a factory producing drop-connect-wrapped dense
// matrices for hardware-aware digital pre-training.
func DropConnectFactory(p float64, rng *rngutil.Source) nn.MatFactory {
	dense := nn.DenseFactory(rng.Child("dense"))
	return func(rows, cols int) nn.Mat {
		inner := dense(rows, cols).(*nn.DenseMat)
		return NewDropConnect(inner, p, rng.Child("dropmask"))
	}
}

// SetTrainMode flips every drop-connect layer in the MLP between training
// (masked) and inference (exact) behaviour.
func SetTrainMode(m *nn.MLP, train bool) {
	for _, l := range m.Layers {
		if dc, ok := l.W.(*DropConnectMat); ok {
			dc.Train = train
		}
	}
}

// digitalSource extracts the exact digital weights behind a layer destined
// for analog programming.
func digitalSource(l *nn.DenseLayer) *tensor.Matrix {
	switch w := l.W.(type) {
	case *nn.DenseMat:
		return w.M
	case *DropConnectMat:
		return w.Inner.M
	}
	panic("analog: expected digital source layers")
}

// ProgramToArrays copies a digitally trained MLP onto fresh crossbar arrays
// (write-verify programming) and returns the analog inference network. Any
// DropConnectMat layers contribute their inner exact weights. Stuck-device
// fractions and periphery non-idealities come from cfg.
func ProgramToArrays(m *nn.MLP, model crossbar.Model, cfg crossbar.Config, rng *rngutil.Source) (*nn.MLP, []*crossbar.Array) {
	out := &nn.MLP{}
	var arrays []*crossbar.Array
	for li, l := range m.Layers {
		src := digitalSource(l)
		a := crossbar.NewArray(l.W.Rows(), l.W.Cols(), model, cfg, rng.Child("prog-layer").Child(string(rune('a'+li))))
		a.Program(src, 4000)
		arrays = append(arrays, a)
		out.Layers = append(out.Layers, &nn.DenseLayer{
			In: l.In, Out: l.Out, Bias: l.Bias, Act: l.Act, W: a,
		})
	}
	return out, arrays
}

// ProgramToArraysVerified is ProgramToArrays with closed-loop write-verify
// retry under pol, returning each layer's programming report. If attach is
// non-nil it is called with each fresh array before programming, which is how
// fault campaigns subject the write path to write failures and line opens.
func ProgramToArraysVerified(m *nn.MLP, model crossbar.Model, cfg crossbar.Config, pol crossbar.ProgramPolicy, attach func(*crossbar.Array), rng *rngutil.Source) (*nn.MLP, []*crossbar.Array, []crossbar.ProgramReport) {
	out := &nn.MLP{}
	var arrays []*crossbar.Array
	var reports []crossbar.ProgramReport
	for li, l := range m.Layers {
		src := digitalSource(l)
		a := crossbar.NewArray(l.W.Rows(), l.W.Cols(), model, cfg, rng.Child("prog-layer").Child(string(rune('a'+li))))
		if attach != nil {
			attach(a)
		}
		reports = append(reports, a.ProgramVerify(src, pol))
		arrays = append(arrays, a)
		out.Layers = append(out.Layers, &nn.DenseLayer{
			In: l.In, Out: l.Out, Bias: l.Bias, Act: l.Act, W: a,
		})
	}
	return out, arrays, reports
}
