package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analog"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rngutil"
)

// train-analog: one client trains a 512-512-10 MLP with plain SGD on RRAM
// crossbars, one op being a minibatch of trainBatch TrainStep calls.
const (
	trainWidth = 512
	trainBatch = 8
	trainLR    = 0.01
	// trainMinAccuracy is the test accuracy any seed must reach once it has
	// trained for trainCheckOps ops.
	trainMinAccuracy = 0.85
	trainCheckOps    = 1000
	// trainOpLimitMs is the per-op latency limit goodput counts against.
	trainOpLimitMs = 100
)

var trainWorkload = workload{
	name:         "train-analog",
	opsPerSecond: 85,
	setup:        setupTrain,
}

type trainInstance struct {
	sess        *analog.Session
	net         *nn.MLP
	train, test *dataset.Classification
	tr          *tracer
}

// trainTaskSeed fixes the task every run trains on: the digit classes, the
// pool of examples and the arrays' devices. --seed draws which examples
// form the training and test sets and in which order they are seen, so
// runs with different seeds do the same kind and amount of work.
const trainTaskSeed = 20200309

func setupTrain(seed uint64, tr *tracer) (instance, error) {
	task := rngutil.New(trainTaskSeed)
	cfg := dataset.DefaultDigits()
	cfg.Dim = trainWidth
	cfg.Noise = 1.5
	cfg.PerClass = 300
	pool := dataset.Digits(cfg, task.Child("digits"))
	pick := rngutil.New(seed).Perm(pool.Len())[:1800]
	sample := &dataset.Classification{Classes: cfg.Classes, Dim: cfg.Dim}
	for _, i := range pick {
		sample.X = append(sample.X, pool.X[i])
		sample.Y = append(sample.Y, pool.Y[i])
	}
	train, test := sample.Split(2.0 / 3)
	sess := analog.NewSession(analog.DefaultOptions(crossbar.RRAM(), analog.PlainSGD), task.Child("session"))
	net := nn.NewMLP([]int{trainWidth, trainWidth, cfg.Classes}, nn.TanhAct, nn.SoftmaxAct, tr.factory(sess.Factory()))
	return &trainInstance{sess: sess, net: net, train: train, test: test, tr: tr}, nil
}

func (r *trainInstance) pulses() int64 {
	var n int64
	for _, a := range r.sess.Arrays() {
		n += a.Counts.Pulses
	}
	return n
}

func (r *trainInstance) run(ops int) *outcome {
	lat := make([]float64, ops)
	var loss float64
	var self time.Duration
	pulses0 := r.pulses()
	n := r.train.Len()
	k := 0
	var host hostMeter
	for op := range lat {
		if op%probeEvery == 0 {
			host.sample(1)
		}
		t0 := time.Now()
		for j := 0; j < trainBatch; j++ {
			i := k % n
			k++
			if r.tr == nil {
				loss += r.net.TrainStep(r.train.X[i], r.train.Y[i], trainLR)
				continue
			}
			s0, mat0 := time.Now(), r.tr.matTime()
			loss += r.net.TrainStep(r.train.X[i], r.train.Y[i], trainLR)
			self += time.Since(s0) - (r.tr.matTime() - mat0)
		}
		lat[op] = msSince(t0)
	}
	pulses := r.pulses() - pulses0
	layers := map[string]float64{
		"crossbar.forward_ms":  r.tr.msPerOp(spanForward, ops),
		"crossbar.backward_ms": r.tr.msPerOp(spanBackward, ops),
		"crossbar.update_ms":   r.tr.msPerOp(spanUpdate, ops),
		"crossbar.pulses":      float64(pulses) / float64(ops),
		"nn.self_ms":           float64(self) / 1e6 / float64(ops),
	}

	acc := r.net.Accuracy(r.test.X, r.test.Y)
	out := &outcome{attempted: int64(ops), layers: layers, host: host}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		out.fail("training loss is %v", loss)
	}
	if acc < trainMinAccuracy && ops >= trainCheckOps {
		out.fail("test accuracy %.4f below %.2f after %d ops", acc, trainMinAccuracy, ops)
	}
	out.e2e = closedLoopMetrics(lat, constWork(ops, trainBatch), trainOpLimitMs, acc)
	out.speed = out.e2e["throughput"]
	out.fingerprint = fmt.Sprintf("loss=%.17g accuracy=%.17g pulses=%d", loss, acc, pulses)
	return out
}

func (r *trainInstance) close() {}
