package mann

import (
	"fmt"

	"repro/internal/rngutil"
	"repro/internal/tensor"
)

// KVMemory is the lifelong key-value memory module of the paper's refs.
// [6]/[48] (Kaiser et al., "Learning to Remember Rare Events"): an external
// associative memory holding (key, class, age) triples. Writes insert new
// entries or refresh matching ones; when full, the oldest entry is evicted.
// Reads return the class of the most similar key. Caching support examples
// here is what prevents a MANN from overfitting to its most recent classes
// (§IV-A).
type KVMemory struct {
	Capacity int
	Metric   Metric

	Keys   []tensor.Vector
	Labels []int
	Ages   []int

	clock int
}

// NewKVMemory builds an empty memory with the given capacity and retrieval
// metric.
func NewKVMemory(capacity int, metric Metric) *KVMemory {
	if capacity <= 0 {
		panic(fmt.Sprintf("mann: capacity must be positive, got %d", capacity))
	}
	return &KVMemory{Capacity: capacity, Metric: metric}
}

// Write inserts (key, label). If the nearest stored key already has this
// label, that entry is refreshed (moving-average key update, age reset);
// otherwise a new entry is inserted, evicting the oldest when full.
func (m *KVMemory) Write(key tensor.Vector, label int) {
	m.clock++
	if n := m.Metric.Nearest(key, m.Keys); n >= 0 && m.Labels[n] == label {
		// Refresh: average the stored key toward the new example.
		stored := m.Keys[n]
		for i := range stored {
			stored[i] = 0.5 * (stored[i] + key[i])
		}
		m.Ages[n] = m.clock
		return
	}
	if len(m.Keys) >= m.Capacity {
		oldest := 0
		for i, a := range m.Ages {
			if a < m.Ages[oldest] {
				oldest = i
			}
		}
		m.Keys[oldest] = key.Clone()
		m.Labels[oldest] = label
		m.Ages[oldest] = m.clock
		return
	}
	m.Keys = append(m.Keys, key.Clone())
	m.Labels = append(m.Labels, label)
	m.Ages = append(m.Ages, m.clock)
}

// Read returns the label of the entry most similar to the query, or -1 for
// an empty memory.
func (m *KVMemory) Read(query tensor.Vector) int {
	n := m.Metric.Nearest(query, m.Keys)
	if n < 0 {
		return -1
	}
	return m.Labels[n]
}

// LifelongAccuracy streams nClasses·perClass labelled examples through a
// capacity-limited KVMemory (writes interleaved across classes), then
// queries every class. Once the class count outgrows the capacity, the
// age-based eviction forgets early classes — so accuracy rises with memory
// size. This is the §IV-C argument for denser CAM cells: the same
// transistor budget holds more entries, and more entries remember more.
func LifelongAccuracy(u LifelongSource, capacity, nClasses, perClass, queries int, seed uint64) float64 {
	rng := rngutil.New(seed)
	mem := NewKVMemory(capacity, Cosine)
	for k := 0; k < perClass; k++ {
		for c := 0; c < nClasses; c++ {
			mem.Write(u.Sample(c, rng.Child("w")), c)
		}
	}
	correct, total := 0, 0
	for q := 0; q < queries; q++ {
		c := rng.Intn(nClasses)
		if mem.Read(u.Sample(c, rng.Child("q"))) == c {
			correct++
		}
		total++
	}
	return float64(correct) / float64(total)
}

// LifelongSource is the sampling interface LifelongAccuracy needs; it is
// satisfied by *dataset.FewShotUniverse.
type LifelongSource interface {
	Sample(class int, rng *rngutil.Source) tensor.Vector
}
