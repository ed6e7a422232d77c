package mann

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// MatchingNet is an episodically trained embedding network with cosine
// attention over the support set — the matching-network approach to
// one-shot learning (the paper's ref. [5], Vinyals et al.), i.e. the
// "helper network that generates feature embeddings" of §VI. The query's
// class distribution is softmax(β·cos(f(q), f(sᵢ))) summed per class;
// training backpropagates the episode cross-entropy through the attention
// into the shared embedding MLP.
type MatchingNet struct {
	Embed *nn.MLP
	Beta  float64
}

// NewMatchingNet builds an embedding MLP inDim → hidden → embedDim.
func NewMatchingNet(inDim, hidden, embedDim int, beta float64, rng *rngutil.Source) *MatchingNet {
	return &MatchingNet{
		Embed: nn.NewMLP([]int{inDim, hidden, embedDim}, nn.TanhAct, nn.Identity, nn.DenseFactory(rng)),
		Beta:  beta,
	}
}

// classProbs computes the per-support attention p and the per-class
// probabilities for a query embedding.
func (m *MatchingNet) classProbs(eq tensor.Vector, supports []tensor.Vector, labels []int, nway int) (p tensor.Vector, classP tensor.Vector) {
	logits := make(tensor.Vector, len(supports))
	for i, es := range supports {
		logits[i] = m.Beta * tensor.CosineSimilarity(eq, es)
	}
	p = tensor.Softmax(logits)
	classP = make(tensor.Vector, nway)
	for i, pi := range p {
		classP[labels[i]] += pi
	}
	return p, classP
}

// Classify predicts the episode-local label of a query given raw support
// vectors.
func (m *MatchingNet) Classify(q tensor.Vector, supports []tensor.Vector, labels []int, nway int) int {
	eq := m.Embed.Forward(q).Clone()
	es := make([]tensor.Vector, len(supports))
	for i, s := range supports {
		es[i] = m.Embed.Forward(s).Clone()
	}
	_, classP := m.classProbs(eq, es, labels, nway)
	return classP.ArgMax()
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

// TrainEpisode performs one SGD step on a full episode and returns the mean
// query cross-entropy before the update.
func (m *MatchingNet) TrainEpisode(ep *dataset.Episode, lr float64) float64 {
	// Embed all supports once (treated as constants during the query pass;
	// their own gradients are accumulated and applied afterwards).
	es := make([]tensor.Vector, len(ep.Support))
	for i, s := range ep.Support {
		es[i] = m.Embed.Forward(s).Clone()
	}
	dSupports := make([]tensor.Vector, len(ep.Support))
	for i := range dSupports {
		dSupports[i] = tensor.NewVector(len(es[i]))
	}

	var totalLoss float64
	for qi, q := range ep.Query {
		eq := m.Embed.Forward(q).Clone()
		p, classP := m.classProbs(eq, es, ep.SupportLabels, ep.NWay)
		y := ep.QueryLabels[qi]
		P := math.Max(classP[y], 1e-12)
		totalLoss += -math.Log(P)

		// dL/dlogit_i = p_i − p_i·1[label_i==y]/P.
		dEq := tensor.NewVector(len(eq))
		for i := range p {
			dlogit := p[i]
			if ep.SupportLabels[i] == y {
				dlogit -= p[i] / P
			}
			if dlogit == 0 {
				continue
			}
			scale := m.Beta * dlogit
			dEq.AXPY(scale, cosGrad(eq, es[i]))
			dSupports[i].AXPY(scale, cosGrad(es[i], eq))
		}
		// The embedding cache still holds q's forward pass.
		m.Embed.Learn(dEq, lr)
	}

	// Apply accumulated support gradients (one re-forward each to restore
	// the layer caches for backprop).
	for i, s := range ep.Support {
		m.Embed.Forward(s)
		m.Embed.Learn(dSupports[i], lr)
	}
	return totalLoss / float64(len(ep.Query))
}

// MetaTrain runs episodic training against a universe and returns the mean
// loss of the final 10 % of episodes.
func (m *MatchingNet) MetaTrain(u *dataset.FewShotUniverse, nway, kshot, nquery, episodes int, lr float64) float64 {
	var tail float64
	tailStart := episodes * 9 / 10
	count := 0
	for e := 0; e < episodes; e++ {
		ep := u.SampleEpisode(nway, kshot, nquery)
		loss := m.TrainEpisode(ep, lr)
		if e >= tailStart {
			tail += loss
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return tail / float64(count)
}

// EvaluateMatching measures episodic accuracy of the (frozen) matching net
// on a universe — typically one whose classes were never seen in training.
func EvaluateMatching(m *MatchingNet, u *dataset.FewShotUniverse, nway, kshot, nquery, episodes int) float64 {
	correct, total := 0, 0
	for e := 0; e < episodes; e++ {
		ep := u.SampleEpisode(nway, kshot, nquery)
		for qi, q := range ep.Query {
			if m.Classify(q, ep.Support, ep.SupportLabels, ep.NWay) == ep.QueryLabels[qi] {
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

// EvaluateRawCosine is the no-embedding baseline on the same protocol.
func EvaluateRawCosine(u *dataset.FewShotUniverse, nway, kshot, nquery, episodes int) float64 {
	correct, total := 0, 0
	for e := 0; e < episodes; e++ {
		ep := u.SampleEpisode(nway, kshot, nquery)
		for qi, q := range ep.Query {
			if Cosine.Nearest(q, ep.Support) >= 0 &&
				ep.SupportLabels[Cosine.Nearest(q, ep.Support)] == ep.QueryLabels[qi] {
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
