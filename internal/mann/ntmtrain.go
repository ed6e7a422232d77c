package mann

import (
	"math"

	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// TrainableNTM is a Neural Turing Machine trained end-to-end with
// backpropagation through time *through the differentiable memory*: the
// LSTM controller, the head-parameter projections, the content/interpolate/
// shift addressing pipeline, the erase-add soft writes, and the soft reads
// all carry gradients (paper refs. [3], [8]; the workload class §III
// accelerates). Addressing uses γ=1 (no final sharpening), the standard
// simplification that keeps the copy task learnable at small scale.
type TrainableNTM struct {
	N, W, In, Out, H int

	Ctrl *nn.LSTM // input: [x; r_prev]

	// Head projections from the controller state (read head, write head).
	rKey, wKey     *linear // W outputs, tanh
	rBeta, wBeta   *linear // 1 output, softplus
	rGate, wGate   *linear // 1 output, sigmoid
	rShift, wShift *linear // 3 outputs, softmax
	erase, add     *linear // W outputs, sigmoid / tanh
	out            *linear // Out outputs from [h; r], sigmoid
}

// linear is a bias-carrying dense projection with explicit gradient
// accumulation (the BPTT bookkeeping nn.DenseLayer does not provide).
type linear struct {
	W  *tensor.Matrix
	B  tensor.Vector
	DW *tensor.Matrix
	DB tensor.Vector
}

func newLinear(out, in int, rng *rngutil.Source) *linear {
	l := &linear{
		W: tensor.NewMatrix(out, in), B: tensor.NewVector(out),
		DW: tensor.NewMatrix(out, in), DB: tensor.NewVector(out),
	}
	nn.InitXavier(l.W, rng)
	return l
}

func (l *linear) fwd(x tensor.Vector) tensor.Vector {
	y := l.W.MatVec(x)
	y.Add(l.B)
	return y
}

// bwd accumulates parameter gradients for input x and output gradient dy,
// returning dL/dx.
func (l *linear) bwd(x, dy tensor.Vector) tensor.Vector {
	l.DW.AddOuter(1, dy, x)
	l.DB.Add(dy)
	return l.W.MatVecT(dy)
}

func (l *linear) zeroGrad() {
	l.DW.Fill(0)
	l.DB.Fill(0)
}

func (l *linear) gradNorm() float64 { return l.DW.FrobeniusNorm() + l.DB.Norm2() }

func (l *linear) apply(lr, scale float64) {
	for i := range l.W.Data {
		l.W.Data[i] -= lr * scale * l.DW.Data[i]
	}
	for i := range l.B {
		l.B[i] -= lr * scale * l.DB[i]
	}
}

func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}

// NewTrainableNTM builds the machine: memory N×W, inputs In, outputs Out,
// controller hidden size H.
func NewTrainableNTM(n, w, in, out, h int, rng *rngutil.Source) *TrainableNTM {
	m := &TrainableNTM{
		N: n, W: w, In: in, Out: out, H: h,
		Ctrl:   nn.NewLSTM(in+w, h, rng.Child("ctrl")),
		rKey:   newLinear(w, h, rng.Child("rkey")),
		wKey:   newLinear(w, h, rng.Child("wkey")),
		rBeta:  newLinear(1, h, rng.Child("rbeta")),
		wBeta:  newLinear(1, h, rng.Child("wbeta")),
		rGate:  newLinear(1, h, rng.Child("rgate")),
		wGate:  newLinear(1, h, rng.Child("wgate")),
		rShift: newLinear(3, h, rng.Child("rshift")),
		wShift: newLinear(3, h, rng.Child("wshift")),
		erase:  newLinear(w, h, rng.Child("erase")),
		add:    newLinear(w, h, rng.Child("add")),
		out:    newLinear(out, h+w, rng.Child("out")),
	}
	return m
}

// headFwd caches one head's addressing intermediates.
type headFwd struct {
	keyRaw, key     tensor.Vector
	betaRaw, beta   float64
	gateRaw, gate   float64
	shiftRaw, shift tensor.Vector
	sims, wc, wg, w tensor.Vector
	wPrev           tensor.Vector
}

// ntmStep caches one time step.
type ntmStep struct {
	x, ctrlIn        tensor.Vector
	ctrlCache        *nn.StepCache
	h                tensor.Vector
	MPrev, MNew      *tensor.Matrix
	read, write      *headFwd
	eraseRaw, eraseV tensor.Vector
	addRaw, addV     tensor.Vector
	rPrev, r         tensor.Vector
	outIn, yRaw, y   tensor.Vector
}

// address runs the γ=1 addressing pipeline against memory M.
func (m *TrainableNTM) address(h tensor.Vector, M *tensor.Matrix, wPrev tensor.Vector,
	keyL, betaL, gateL, shiftL *linear) *headFwd {
	f := &headFwd{wPrev: wPrev.Clone()}
	f.keyRaw = keyL.fwd(h)
	f.key = tensor.Apply(f.keyRaw, tensor.Tanh)
	f.betaRaw = betaL.fwd(h)[0]
	f.beta = softplus(f.betaRaw)
	f.gateRaw = gateL.fwd(h)[0]
	f.gate = tensor.Sigmoid(f.gateRaw)
	f.shiftRaw = shiftL.fwd(h)
	f.shift = tensor.Softmax(f.shiftRaw)

	f.sims = make(tensor.Vector, m.N)
	for i := 0; i < m.N; i++ {
		f.sims[i] = tensor.CosineSimilarity(f.key, M.Row(i))
	}
	f.wc = tensor.SoftmaxT(f.sims, f.beta)
	f.wg = make(tensor.Vector, m.N)
	for i := range f.wg {
		f.wg[i] = f.gate*f.wc[i] + (1-f.gate)*wPrev[i]
	}
	f.w = make(tensor.Vector, m.N)
	for i := range f.w {
		for s, p := range f.shift {
			offset := s - 1
			src := ((i-offset)%m.N + m.N) % m.N
			f.w[i] += f.wg[src] * p
		}
	}
	return f
}

// State carries the recurrent machine state between steps.
type State struct {
	M      *tensor.Matrix
	H, C   tensor.Vector
	R      tensor.Vector
	WR, WW tensor.Vector
}

// InitState returns the fixed initial state: constant memory, zero
// controller state, attention focused on slot 0.
func (m *TrainableNTM) InitState() *State {
	s := &State{
		M:  tensor.NewMatrix(m.N, m.W),
		H:  tensor.NewVector(m.H),
		C:  tensor.NewVector(m.H),
		R:  tensor.NewVector(m.W),
		WR: tensor.NewVector(m.N),
		WW: tensor.NewVector(m.N),
	}
	s.M.Fill(0.1)
	s.WR[0] = 1
	s.WW[0] = 1
	return s
}

// forwardStep advances one step, returning the cache and mutating st.
func (m *TrainableNTM) forwardStep(x tensor.Vector, st *State) *ntmStep {
	c := &ntmStep{x: x.Clone(), rPrev: st.R.Clone(), MPrev: st.M.Clone()}
	c.ctrlIn = make(tensor.Vector, 0, m.In+m.W)
	c.ctrlIn = append(c.ctrlIn, x...)
	c.ctrlIn = append(c.ctrlIn, st.R...)
	h, cc, cache := m.Ctrl.StepWithCache(c.ctrlIn, st.H, st.C)
	c.h, c.ctrlCache = h, cache
	st.H, st.C = h.Clone(), cc.Clone()

	c.read = m.address(h, c.MPrev, st.WR, m.rKey, m.rBeta, m.rGate, m.rShift)
	c.write = m.address(h, c.MPrev, st.WW, m.wKey, m.wBeta, m.wGate, m.wShift)
	st.WR, st.WW = c.read.w.Clone(), c.write.w.Clone()

	c.eraseRaw = m.erase.fwd(h)
	c.eraseV = tensor.Apply(c.eraseRaw, tensor.Sigmoid)
	c.addRaw = m.add.fwd(h)
	c.addV = tensor.Apply(c.addRaw, tensor.Tanh)

	// Write, then read from the updated memory.
	c.MNew = c.MPrev.Clone()
	for i := 0; i < m.N; i++ {
		wi := c.write.w[i]
		if wi == 0 {
			continue
		}
		row := c.MNew.Row(i)
		for j := range row {
			row[j] = row[j]*(1-wi*c.eraseV[j]) + wi*c.addV[j]
		}
	}
	st.M = c.MNew.Clone()
	c.r = c.MNew.MatVecT(c.read.w)
	st.R = c.r.Clone()

	c.outIn = make(tensor.Vector, 0, m.H+m.W)
	c.outIn = append(c.outIn, h...)
	c.outIn = append(c.outIn, c.r...)
	c.yRaw = m.out.fwd(c.outIn)
	c.y = tensor.Apply(c.yRaw, tensor.Sigmoid)
	return c
}

// ForwardSeq runs the machine over a sequence from the initial state and
// returns the outputs plus the caches for BackwardSeq.
func (m *TrainableNTM) ForwardSeq(xs []tensor.Vector) ([]tensor.Vector, []*ntmStep) {
	st := m.InitState()
	ys := make([]tensor.Vector, len(xs))
	steps := make([]*ntmStep, len(xs))
	for t, x := range xs {
		steps[t] = m.forwardStep(x, st)
		ys[t] = steps[t].y
	}
	return ys, steps
}

// headBwd backpropagates the addressing pipeline of one head: given dL/dw
// it accumulates projection grads, returns dL/dh, dL/dM (added into dM),
// and dL/dwPrev for the previous step.
func (m *TrainableNTM) headBwd(f *headFwd, dw tensor.Vector, h tensor.Vector, M, dM *tensor.Matrix,
	keyL, betaL, gateL, shiftL *linear) (dh, dwPrev tensor.Vector) {
	// Shift backward.
	dwg := make(tensor.Vector, m.N)
	dshift := tensor.NewVector(3)
	for i := 0; i < m.N; i++ {
		if dw[i] == 0 {
			continue
		}
		for s, p := range f.shift {
			offset := s - 1
			src := ((i-offset)%m.N + m.N) % m.N
			dwg[src] += dw[i] * p
			dshift[s] += dw[i] * f.wg[src]
		}
	}
	// Softmax jacobian for shift.
	dot := tensor.Dot(dshift, f.shift)
	dshiftRaw := make(tensor.Vector, 3)
	for s := range dshiftRaw {
		dshiftRaw[s] = f.shift[s] * (dshift[s] - dot)
	}
	dh = shiftL.bwd(h, dshiftRaw)

	// Interpolation backward.
	dwc := make(tensor.Vector, m.N)
	dwPrev = make(tensor.Vector, m.N)
	var dgate float64
	for i := 0; i < m.N; i++ {
		dwc[i] = f.gate * dwg[i]
		dwPrev[i] = (1 - f.gate) * dwg[i]
		dgate += dwg[i] * (f.wc[i] - f.wPrev[i])
	}
	dgateRaw := dgate * tensor.SigmoidPrime(f.gate)
	dh.Add(gateL.bwd(h, tensor.Vector{dgateRaw}))

	// Content softmax backward: wc = softmax(beta·sims).
	dotc := tensor.Dot(dwc, f.wc)
	dlogit := make(tensor.Vector, m.N)
	for i := range dlogit {
		dlogit[i] = f.wc[i] * (dwc[i] - dotc)
	}
	var dbeta float64
	dsims := make(tensor.Vector, m.N)
	for i := range dlogit {
		dbeta += dlogit[i] * f.sims[i]
		dsims[i] = f.beta * dlogit[i]
	}
	dbetaRaw := dbeta * tensor.Sigmoid(f.betaRaw) // softplus'
	dh.Add(betaL.bwd(h, tensor.Vector{dbetaRaw}))

	// Cosine similarity backward into key and memory rows.
	dkey := tensor.NewVector(m.W)
	for i := 0; i < m.N; i++ {
		if dsims[i] == 0 {
			continue
		}
		row := M.Row(i)
		dkey.AXPY(dsims[i], cosGrad(f.key, row))
		dM.Row(i).AXPY(dsims[i], cosGrad(row, f.key))
	}
	// Key tanh backward.
	dkeyRaw := make(tensor.Vector, m.W)
	for j := range dkeyRaw {
		dkeyRaw[j] = dkey[j] * tensor.TanhPrime(f.key[j])
	}
	dh.Add(keyL.bwd(h, dkeyRaw))
	return dh, dwPrev
}

// BackwardSeq backpropagates through the whole sequence. dyRaw[t] must hold
// dL/d(pre-sigmoid output) at step t (nil entries mean no loss there, e.g.
// during the input phase of the copy task). Gradients accumulate in the
// linears and the returned LSTM grads; call ApplyGrads to take the step.
func (m *TrainableNTM) BackwardSeq(steps []*ntmStep, dyRaw []tensor.Vector) *nn.LSTMGrads {
	g := m.Ctrl.NewLSTMGrads()
	dM := tensor.NewMatrix(m.N, m.W)
	dhNext := tensor.NewVector(m.H)
	dcNext := tensor.NewVector(m.H)
	drNext := tensor.NewVector(m.W)
	dwrNext := tensor.NewVector(m.N)
	dwwNext := tensor.NewVector(m.N)

	for t := len(steps) - 1; t >= 0; t-- {
		c := steps[t]
		dh := tensor.NewVector(m.H)
		dr := drNext.Clone()

		// Output layer.
		if t < len(dyRaw) && dyRaw[t] != nil {
			dOutIn := m.out.bwd(c.outIn, dyRaw[t])
			dh.Add(dOutIn[:m.H])
			dr.Add(dOutIn[m.H:])
		}

		// Read: r = M_newᵀ·w_r.
		dM.AddOuter(1, c.read.w, dr)
		dwr := c.MNew.MatVec(dr)
		dwr.Add(dwrNext)

		// Write backward: consumes dM (for M_new), produces dM for M_prev.
		dww := dwwNext.Clone()
		dErase := tensor.NewVector(m.W)
		dAdd := tensor.NewVector(m.W)
		dMPrev := tensor.NewMatrix(m.N, m.W)
		for i := 0; i < m.N; i++ {
			wi := c.write.w[i]
			dRow := dM.Row(i)
			pRow := c.MPrev.Row(i)
			for j := 0; j < m.W; j++ {
				dij := dRow[j]
				if dij == 0 {
					continue
				}
				dMPrev.Row(i)[j] += dij * (1 - wi*c.eraseV[j])
				dww[i] += dij * (c.addV[j] - pRow[j]*c.eraseV[j])
				dErase[j] += dij * (-pRow[j] * wi)
				dAdd[j] += dij * wi
			}
		}
		// Erase (sigmoid) and add (tanh) projections.
		dEraseRaw := make(tensor.Vector, m.W)
		dAddRaw := make(tensor.Vector, m.W)
		for j := 0; j < m.W; j++ {
			dEraseRaw[j] = dErase[j] * tensor.SigmoidPrime(c.eraseV[j])
			dAddRaw[j] = dAdd[j] * tensor.TanhPrime(c.addV[j])
		}
		dh.Add(m.erase.bwd(c.h, dEraseRaw))
		dh.Add(m.add.bwd(c.h, dAddRaw))

		// Addressing backward for both heads (against M_prev).
		dhR, dwrPrev := m.headBwd(c.read, dwr, c.h, c.MPrev, dMPrev, m.rKey, m.rBeta, m.rGate, m.rShift)
		dhW, dwwPrev := m.headBwd(c.write, dww, c.h, c.MPrev, dMPrev, m.wKey, m.wBeta, m.wGate, m.wShift)
		dh.Add(dhR)
		dh.Add(dhW)

		// Controller backward.
		dh.Add(dhNext)
		dx, dhPrev, dcPrev := m.Ctrl.StepBackward(c.ctrlCache, dh, dcNext, g)
		dhNext, dcNext = dhPrev, dcPrev
		drNext = dx[m.In:].Clone() // gradient into r_{t-1}

		dM = dMPrev
		dwrNext, dwwNext = dwrPrev, dwwPrev
	}
	return g
}

// linears lists every projection for gradient management.
func (m *TrainableNTM) linears() []*linear {
	return []*linear{
		m.rKey, m.wKey, m.rBeta, m.wBeta, m.rGate, m.wGate,
		m.rShift, m.wShift, m.erase, m.add, m.out,
	}
}

// ZeroGrads clears accumulated projection gradients.
func (m *TrainableNTM) ZeroGrads() {
	for _, l := range m.linears() {
		l.zeroGrad()
	}
}

// ApplyGrads performs the SGD step with global-norm clipping over all
// parameters (clip <= 0 disables clipping).
func (m *TrainableNTM) ApplyGrads(g *nn.LSTMGrads, lr, clip float64) {
	scale := 1.0
	if clip > 0 {
		norm := g.DWx.FrobeniusNorm() + g.DWh.FrobeniusNorm() + g.DB.Norm2()
		for _, l := range m.linears() {
			norm += l.gradNorm()
		}
		if norm > clip {
			scale = clip / norm
		}
	}
	m.Ctrl.ApplyGrads(g, lr*scale, 0)
	for _, l := range m.linears() {
		l.apply(lr, scale)
	}
}

// CopyTaskLoss runs one copy-task sequence (store phase: start marker +
// payload; recall phase: end marker + blanks) and, when lr > 0, takes one
// BPTT training step. It returns the mean recall-phase BCE.
func (m *TrainableNTM) CopyTaskLoss(payload []tensor.Vector, lr, clip float64) float64 {
	bits := m.Out
	T := 2*len(payload) + 2
	xs := make([]tensor.Vector, T)
	// Input layout: [bits payload channels; start flag; end flag].
	start := tensor.NewVector(m.In)
	start[bits] = 1
	end := tensor.NewVector(m.In)
	end[bits+1] = 1
	xs[0] = start
	for i, p := range payload {
		v := tensor.NewVector(m.In)
		copy(v, p)
		xs[1+i] = v
	}
	xs[1+len(payload)] = end
	for t := 2 + len(payload); t < T; t++ {
		xs[t] = tensor.NewVector(m.In)
	}

	ys, steps := m.ForwardSeq(xs)
	dyRaw := make([]tensor.Vector, T)
	var loss float64
	recallStart := len(payload) + 2
	for i, p := range payload {
		t := recallStart + i
		y := ys[t]
		loss += nn.BCE(y, p)
		d := make(tensor.Vector, bits)
		for j := range d {
			d[j] = (y[j] - p[j]) / float64(bits*len(payload))
		}
		dyRaw[t] = d
	}
	loss /= float64(len(payload))
	if lr > 0 {
		m.ZeroGrads()
		g := m.BackwardSeq(steps, dyRaw)
		m.ApplyGrads(g, lr, clip)
	}
	return loss
}

// cosGrad returns d cos(a,b) / da.
func cosGrad(a, b tensor.Vector) tensor.Vector {
	na := a.Norm2() + 1e-12
	nb := b.Norm2() + 1e-12
	cos := tensor.Dot(a, b) / (na * nb)
	g := make(tensor.Vector, len(a))
	for i := range g {
		g[i] = b[i]/(na*nb) - cos*a[i]/(na*na)
	}
	return g
}
