package main

import (
	"math"
	"time"
)

// Host-speed scaling. On the 2-vCPU VM this benchmark was tuned on, the
// speed the host gave the benchmark drifted by up to 40% between runs a
// minute apart (train-analog p50 6.6-9.9 ms on identical work), more than
// the largest bound an end-to-end metric may have. Each run therefore also
// times a fixed probe at regular points of its timed work: code of the
// benchmark's own that no change to the repository can speed up or slow
// down. Every end-to-end time and rate is reported scaled to the probe's
// reference speed (times by probeRefMs over the run's median probe time,
// rates by its inverse), except serve-open's throughput, which its
// schedule sets. Over 8 runs each, the scaling cut the p50 spread
// from 0.25 to 0.10 (train-analog) and from 0.29 to 0.09 (mann-memory).
// The median probe time is printed as host.probe_ms, so the unscaled
// figures can be recovered; the per-layer times are not scaled.

// probeRefMs is the median probe time on the tuning host in a quiet spell.
const probeRefMs = 0.41

// probeEvery is how many ops a closed-loop workload runs between probes.
const probeEvery = 25

// Probe state: a 256×256 matrix for a cache-resident dense matvec, the
// crossbar read kernels' instruction mix, and 64K small objects behind an
// interface for the per-device calls of the crossbar update.
var (
	probeMat  = make([]float64, 256*256)
	probeX    = make([]float64, 256)
	probeY    = make([]float64, 256)
	probeDevs = make([]probeStepper, 1<<16)
	probeSink float64
)

type probeStepper interface{ step(x float64) float64 }

type probeDevice struct{ w, a float64 }

func (d *probeDevice) step(x float64) float64 {
	d.w += d.a * x
	if d.w > 1 {
		d.w = -1
	}
	return d.w
}

func init() {
	for i := range probeMat {
		probeMat[i] = float64(i%17) * 0.01
	}
	for i := range probeDevs {
		probeDevs[i] = &probeDevice{a: float64(i%7) * 1e-3}
	}
}

// probe times both probe kernels once and returns the geometric mean of
// their times in milliseconds.
func probe() float64 {
	for i := range probeX {
		probeX[i] = float64(i) * 0.001
	}
	t0 := time.Now()
	x, y := probeX, probeY
	for r := 0; r < 8; r++ {
		for i := range y {
			s := 0.0
			for j, v := range probeMat[i*256 : (i+1)*256] {
				s += v * x[j]
			}
			y[i] = s
		}
		x, y = y, x
	}
	mv := time.Since(t0)
	t1 := time.Now()
	s := x[0]
	for _, d := range probeDevs {
		s += d.step(0.5)
	}
	calls := time.Since(t1)
	probeSink = s
	return math.Sqrt(float64(mv)*float64(calls)) / 1e6
}

// hostMeter collects a run's probe times.
type hostMeter struct{ ms []float64 }

// sample runs the probe n times.
func (h *hostMeter) sample(n int) {
	for i := 0; i < n; i++ {
		h.ms = append(h.ms, probe())
	}
}

// scale is the factor that turns this run's times into reference-speed
// times: probeRefMs over the median probe time (1 without samples).
func (h *hostMeter) scale() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	return probeRefMs / median(h.ms)
}
