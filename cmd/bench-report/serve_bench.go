package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rngutil"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The live-service benchmark pair: an open-loop saturating workload (every
// request submitted up front from its own goroutine, so the queue stays
// deep) through serve.Service fronting one digital-MLP replica. The arms
// differ only in Policy.BatchMax, so the ratio is what dynamic request
// batching buys end to end — coalesced dispatch through the sample-blocked
// MVM kernel versus one request per dispatch — with the real runtime
// machinery (bounded queue, gather timer, dispatch core, per-request result
// channels) on both sides.
//
// The width is chosen to put the single-dispatch arm in the memory-bound
// regime this service actually batches for: at 1536 the layer matrix is
// ~18 MB, far beyond cache, so single dispatch re-streams the weights from
// memory for every request while a coalesced block streams them once
// (serveBatchMax is par.BatchSpan, so one sample block covers it). That
// traffic amortization is the mechanism, not scheduler luck, so the
// speedup is stable under load.
const (
	serveWidth     = 1536
	serveTotalReqs = 192
	serveBatchMax  = par.BatchSpan
	// serveBenchReps is the rep count for the service pair's min-of-N
	// estimate — more than benchReps because whole-service ops are long and
	// each arm needs enough chances to land a rep clear of machine noise.
	serveBenchReps = 5
)

// digitalPipe serves a digital float MLP as a serve.Pipeline. No analog
// arrays are involved: the pair measures dispatch and coalescing, and the
// MVM runs on the same par tile engine the analog path uses.
type digitalPipe struct{ net *nn.MLP }

func (p *digitalPipe) Infer(x tensor.Vector, verify bool) (tensor.Vector, bool) {
	return p.net.Forward(x).Clone(), true
}

func (p *digitalPipe) InferBatch(xs []tensor.Vector, verify bool) ([]tensor.Vector, []bool) {
	ys := p.net.ForwardBatch(xs)
	oks := make([]bool, len(xs))
	for i := range oks {
		oks[i] = true
	}
	return ys, oks
}

func (p *digitalPipe) CanaryDivergence() float64     { return 0 }
func (p *digitalPipe) Recalibrate() serve.RecalStats { return serve.RecalStats{} }

var _ serve.BatchPipeline = (*digitalPipe)(nil)

// serveWorkload builds the deterministic net and input set both arms share.
func serveWorkload() (*nn.MLP, []tensor.Vector) {
	rng := rngutil.New(uint64(9000 + serveWidth))
	net := nn.NewMLP([]int{serveWidth, serveWidth}, nn.TanhAct, nn.Identity,
		nn.DenseFactory(rng.Child("weights")))
	xs := make([]tensor.Vector, 16)
	for s := range xs {
		xs[s] = make(tensor.Vector, serveWidth)
		for i := range xs[s] {
			xs[s][i] = rng.NormFloat64()
		}
	}
	return net, xs
}

// benchServe runs the open-loop workload on one replica; one op
// serves serveTotalReqs requests to completion. The queue holds every outstanding request
// (QueueCap is sized so nothing sheds) and deadlines are far away, so both
// arms answer all requests and the ratio is a pure throughput comparison.
func benchServe(bmax, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		// The request path allocates ~60 KB per request, so the GC pacer
		// fires mid-op and its assist pauses land unevenly across ops —
		// ±30% swings on the shorter batched ops. Collection is forced in
		// the untimed window after every op instead (bounding the heap at
		// one op's garbage), keeping the timed region GC-free for both arms.
		gcPct := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gcPct)
		par.SetWorkers(workers)
		net, xs := serveWorkload()
		pol := serve.PolicyNone()
		pol.Deadline = 1e6
		pol.QueueCap = 2 * serveTotalReqs
		pol.BatchMax = bmax
		// The first request dispatches alone to the free replica; the rest
		// queue behind it, and every block after fills from the queue. The
		// gather timer only runs when a freed replica finds a short block.
		pol.BatchWait = 1e-3
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := serve.NewService(pol,
				[]*serve.Replica{serve.NewReplica(0, &digitalPipe{net: net}, pol)}, nil, 1)
			b.StartTimer()
			var wg sync.WaitGroup
			for r := 0; r < serveTotalReqs; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if _, err := svc.Do(xs[r%len(xs)]); err != nil {
						b.Error(err)
					}
				}(r)
			}
			wg.Wait()
			b.StopTimer()
			svc.Close()
			// Collect the op's request-path garbage off the clock: GC debt
			// is proportional to requests served, not to wall time, so left
			// on the clock it taxes the faster arm's shorter ops relatively
			// more and understates the throughput ratio.
			runtime.GC()
			b.StartTimer()
		}
	}
}
