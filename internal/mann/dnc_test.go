package mann

import (
	"math"
	"testing"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

func TestDNCAllocationPrefersFreeSlots(t *testing.T) {
	d := NewDNCMemory(4, 2)
	d.Usage = tensor.Vector{0.9, 0.1, 0.5, 0.05}
	a := d.Allocation()
	// Slot 3 (lowest usage) must get the most allocation.
	if a.ArgMax() != 3 {
		t.Fatalf("allocation should peak at the freest slot: %v", a)
	}
	if a[0] >= a[1] {
		t.Fatalf("nearly-full slot should receive less than a free one: %v", a)
	}
	// Allocation is a sub-distribution: values in [0,1], sum ≤ 1.
	sum := 0.0
	for _, x := range a {
		if x < 0 || x > 1 {
			t.Fatalf("allocation weight %v out of range", x)
		}
		sum += x
	}
	if sum > 1+1e-9 {
		t.Fatalf("allocation sums to %v > 1", sum)
	}
}

func TestDNCWriteRaisesUsage(t *testing.T) {
	d := NewDNCMemory(4, 3)
	key := tensor.Vector{1, 0, 0}
	ones := tensor.Vector{1, 1, 1}
	ww := d.Write(key, 1, 1, 1, ones, tensor.Vector{0.5, 0.5, 0.5})
	idx := ww.ArgMax()
	if d.Usage[idx] < 0.5 {
		t.Fatalf("written slot usage %v should rise", d.Usage[idx])
	}
}

// The headline DNC capability: write a sequence with allocation-gated
// writes, then traverse it *in order* using only the temporal link matrix —
// no content keys — recovering every stored item.
func TestDNCSequenceTraversalViaLinks(t *testing.T) {
	const n, w, seqLen = 16, 8, 6
	d := NewDNCMemory(n, w)
	rng := rngutil.New(7)
	items := make([]tensor.Vector, seqLen)
	ones := tensor.NewVector(w)
	ones.Fill(1)
	writeWeights := make([]tensor.Vector, seqLen)
	for i := range items {
		v := make(tensor.Vector, w)
		for j := range v {
			v[j] = rng.Uniform(0.1, 1)
		}
		items[i] = v
		// Pure allocation writes (allocGate 1): each lands on a fresh slot.
		writeWeights[i] = d.Write(v, 5, 1, 1, ones, v)
	}
	// Start from the first written location and walk the links forward.
	attn := writeWeights[0]
	got := d.Read(attn)
	for j := range got {
		if math.Abs(got[j]-items[0][j]) > 0.05 {
			t.Fatalf("first item read wrong: %v vs %v", got, items[0])
		}
	}
	for step := 1; step < seqLen; step++ {
		attn = d.ReadForward(attn)
		// Renormalize the soft attention (controller-side sharpening).
		if s := attn.Sum(); s > 0 {
			attn.Scale(1 / s)
		}
		got := d.Read(attn)
		for j := range got {
			if math.Abs(got[j]-items[step][j]) > 0.1 {
				t.Fatalf("forward traversal step %d read %v, want %v", step, got, items[step])
			}
		}
	}
	// And backward traversal returns to the previous item.
	back := d.ReadBackward(attn)
	if s := back.Sum(); s > 0 {
		back.Scale(1 / s)
	}
	got = d.Read(back)
	for j := range got {
		if math.Abs(got[j]-items[seqLen-2][j]) > 0.1 {
			t.Fatalf("backward traversal read %v, want %v", got, items[seqLen-2])
		}
	}
}

func TestDNCContentLookupAfterWrites(t *testing.T) {
	d := NewDNCMemory(8, 4)
	rng := rngutil.New(9)
	ones := tensor.Vector{1, 1, 1, 1}
	var keys []tensor.Vector
	for i := 0; i < 4; i++ {
		v := make(tensor.Vector, 4)
		for j := range v {
			v[j] = rng.Normal(0, 1) // well-separated directions
		}
		keys = append(keys, v)
		d.Write(v, 5, 1, 1, ones, v)
	}
	// Content lookup with a stored key should focus on its slot.
	wts := d.ContentWeights(keys[2], 50)
	got := d.Read(wts)
	for j := range got {
		if math.Abs(got[j]-keys[2][j]) > 0.1 {
			t.Fatalf("content recall %v, want %v", got, keys[2])
		}
	}
}

func TestDNCLinkMatrixProperties(t *testing.T) {
	d := NewDNCMemory(6, 3)
	ones := tensor.Vector{1, 1, 1}
	rng := rngutil.New(11)
	for i := 0; i < 4; i++ {
		v := make(tensor.Vector, 3)
		for j := range v {
			v[j] = rng.Uniform(0.1, 1)
		}
		d.Write(v, 5, 1, 1, ones, v)
	}
	for i := 0; i < d.N; i++ {
		if d.Link.At(i, i) != 0 {
			t.Fatal("link diagonal must stay zero")
		}
		rowSum := d.Link.Row(i).Sum()
		if rowSum < -1e-9 || rowSum > 1+1e-9 {
			t.Fatalf("link row %d sums to %v, outside [0,1]", i, rowSum)
		}
	}
}

func TestDNCShapePanics(t *testing.T) {
	d := NewDNCMemory(4, 2)
	for _, fn := range []func(){
		func() { d.Write(tensor.Vector{1, 0}, 1, 1, 1, tensor.Vector{1}, tensor.Vector{1, 1}) },
		func() { d.Read(tensor.Vector{1}) },
		func() { d.ReadForward(tensor.Vector{1}) },
		func() { d.ReadBackward(tensor.Vector{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDNCOpsCounted(t *testing.T) {
	d := NewDNCMemory(4, 2)
	d.Write(tensor.Vector{1, 0}, 1, 1, 1, tensor.Vector{1, 1}, tensor.Vector{1, 1})
	d.Read(tensor.Vector{0.25, 0.25, 0.25, 0.25})
	if d.Ops.SoftWrites != 1 || d.Ops.SoftReads != 1 || d.Ops.Similarities != 1 {
		t.Fatalf("op counts wrong: %+v", d.Ops)
	}
}
