package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cam"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/rngutil"
	"repro/internal/tensor"
	"repro/internal/xmann"
)

// mann-memory: one client holds a memory of mannEntries keys on two
// back-ends, an X-MANN distributed crossbar memory and an LSH-hashed TCAM.
// One op overwrites mannWrites entries (oldest first) and answers
// mannQueries retrieval queries on both back-ends.
const (
	mannEntries  = 512
	mannKeyDim   = 256
	mannClasses  = 64
	mannTileRows = 128
	mannPlanes   = 128
	mannBeta     = 10
	mannWrites   = 8
	mannQueries  = 4
	// mannMinAccuracy is the top-1 retrieval accuracy each back-end must
	// reach over a run.
	mannMinAccuracy = 0.9
	// mannOpLimitMs is the per-op latency limit goodput counts against.
	mannOpLimitMs = 50
)

var mannWorkload = workload{
	name:         "mann-memory",
	opsPerSecond: 150,
	setup:        setupMann,
}

type mannInstance struct {
	universe *dataset.FewShotUniverse
	rng      *rngutil.Source
	xm       *xmann.DistributedMemory
	hasher   *lsh.Hasher
	tcam     *cam.TCAM
	// shadow holds the encoded key each X-MANN row was last written with;
	// labels the class of every slot. next is the oldest slot.
	shadow []tensor.Vector
	labels []int
	next   int
	tr     *tracer
}

// encode maps a key to the non-negative row X-MANN stores: its positive
// and negative parts side by side, so dot products between encodings sum
// the magnitudes of coordinates whose signs agree.
func encode(k tensor.Vector) tensor.Vector {
	e := make(tensor.Vector, 2*len(k))
	for i, v := range k {
		if v > 0 {
			e[i] = v
		} else {
			e[len(k)+i] = -v
		}
	}
	return e
}

// camRow is the TCAM word of a key's LSH signature.
func camRow(sig lsh.Signature) cam.Row {
	row := make(cam.Row, sig.Bits)
	for i := range row {
		if sig.Get(i) {
			row[i] = cam.One
		}
	}
	return row
}

func setupMann(seed uint64, tr *tracer) (instance, error) {
	rng := rngutil.New(seed)
	u := dataset.NewFewShotUniverse(dataset.FewShotConfig{Classes: mannClasses, Dim: mannKeyDim, Noise: 0.75}, rng.Child("universe"))
	r := &mannInstance{
		universe: u,
		rng:      rng.Child("ops"),
		hasher:   lsh.NewHasher(mannKeyDim, mannPlanes, rng.Child("lsh")),
		tcam:     cam.New(mannPlanes),
		labels:   make([]int, mannEntries),
		tr:       tr,
	}
	fill := rng.Child("fill")
	mem := tensor.NewMatrix(mannEntries, 2*mannKeyDim)
	for slot := 0; slot < mannEntries; slot++ {
		c := slot % mannClasses
		k := u.Sample(c, fill)
		e := encode(k)
		copy(mem.Row(slot), e)
		r.shadow = append(r.shadow, e)
		r.labels[slot] = c
		r.tcam.Store(camRow(r.hasher.Sign(k)))
	}
	r.xm = xmann.NewDistributedMemory(mem, mannTileRows, rng.Child("xmann"))
	return r, nil
}

func (r *mannInstance) pulses() int64 {
	var n int64
	for _, t := range r.xm.Tiles {
		n += t.Array().Counts.Pulses
	}
	return n
}

// sign hashes a key, timing the lsh layer.
func (r *mannInstance) sign(k tensor.Vector) lsh.Signature {
	t0 := time.Now()
	defer r.tr.since("lsh.sign", t0)
	return r.hasher.Sign(k)
}

// write overwrites the oldest slot with key k of class c on both back-ends.
func (r *mannInstance) write(k tensor.Vector, c int, onehot tensor.Vector) {
	slot := r.next
	r.next = (r.next + 1) % mannEntries
	e := encode(k)
	add := e.Clone()
	add.Sub(r.shadow[slot])
	onehot[slot] = 1
	t0 := time.Now()
	r.xm.SoftWrite(onehot, add)
	r.tr.since("xmann.soft_write", t0)
	onehot[slot] = 0
	r.shadow[slot] = e
	// The TCAM's write is a row store; the slot is rewritten in place so
	// the memory keeps mannEntries rows.
	r.tcam.Rows[slot] = camRow(r.sign(k))
	r.labels[slot] = c
}

// query retrieves the class of key k on both back-ends and returns the two
// answers and the X-MANN read vector.
func (r *mannInstance) query(k tensor.Vector) (xmClass, camClass int, read tensor.Vector) {
	t0 := time.Now()
	att := r.xm.Similarity(encode(k), mannBeta)
	r.tr.since("xmann.similarity", t0)
	t0 = time.Now()
	read = r.xm.SoftRead(att)
	r.tr.since("xmann.soft_read", t0)
	row := camRow(r.sign(k))
	t0 = time.Now()
	idx, _ := r.tcam.BestMatch(row)
	r.tr.since("cam.search", t0)
	return r.labels[att.ArgMax()], r.labels[idx], read
}

func (r *mannInstance) run(ops int) *outcome {
	out := &outcome{attempted: int64(ops * mannQueries)}
	lat := make([]float64, ops)
	onehot := tensor.NewVector(mannEntries)
	var xmOK, camOK int
	var readSum float64
	pulses0, searches0 := r.pulses(), r.tcam.Searches
	for op := range lat {
		if op%probeEvery == 0 {
			out.host.sample(1)
		}
		t0 := time.Now()
		for w := 0; w < mannWrites; w++ {
			c := r.rng.Intn(mannClasses)
			r.write(r.universe.Sample(c, r.rng), c, onehot)
		}
		for q := 0; q < mannQueries; q++ {
			c := r.rng.Intn(mannClasses)
			xc, cc, read := r.query(r.universe.Sample(c, r.rng))
			if xc == c {
				xmOK++
			}
			if cc == c {
				camOK++
			}
			if len(read) != 2*mannKeyDim {
				out.fail("soft read returned %d values, want %d", len(read), 2*mannKeyDim)
			}
			for _, v := range read {
				readSum += v
			}
		}
		lat[op] = msSince(t0)
	}
	pulses, searches := r.pulses()-pulses0, r.tcam.Searches-searches0
	queries := float64(ops * mannQueries)
	xmAcc, camAcc := float64(xmOK)/queries, float64(camOK)/queries
	if math.IsNaN(readSum) || math.IsInf(readSum, 0) {
		out.fail("soft reads are not finite")
	}
	if searches != int64(ops*mannQueries) {
		out.fail("TCAM issued %d searches for %d queries", searches, ops*mannQueries)
	}
	for _, b := range []struct {
		name string
		acc  float64
	}{{"X-MANN", xmAcc}, {"TCAM", camAcc}} {
		if b.acc < mannMinAccuracy {
			out.fail("%s retrieval accuracy %.4f below %.2f", b.name, b.acc, mannMinAccuracy)
		}
	}
	out.layers = map[string]float64{
		"xmann.similarity_ms": r.tr.msPerOp("xmann.similarity", ops),
		"xmann.soft_read_ms":  r.tr.msPerOp("xmann.soft_read", ops),
		"xmann.soft_write_ms": r.tr.msPerOp("xmann.soft_write", ops),
		"lsh.sign_ms":         r.tr.msPerOp("lsh.sign", ops),
		"cam.search_ms":       r.tr.msPerOp("cam.search", ops),
		"cam.searches":        float64(searches) / float64(ops),
		"crossbar.pulses":     float64(pulses) / float64(ops),
	}
	out.e2e = closedLoopMetrics(lat, constWork(ops, mannQueries), mannOpLimitMs, (xmAcc+camAcc)/2)
	out.speed = out.e2e["throughput"]
	out.fingerprint = fmt.Sprintf("xmann_accuracy=%.17g tcam_accuracy=%.17g read_sum=%.17g pulses=%d searches=%d",
		xmAcc, camAcc, readSum, pulses, searches)
	return out
}

func (r *mannInstance) close() {}
