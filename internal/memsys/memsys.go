// Package memsys is a small memory-hierarchy model: a set-associative LRU
// cache that drives the embedding-table locality studies of §V (irregular,
// Zipf-skewed accesses against tables far larger than on-chip storage), and
// the DRAM parameters the near-memory-processing model of §V builds on.
package memsys

import "fmt"

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	LineSize int // bytes per line
	Ways     int
	Sets     int

	// tags[set] is ordered most-recent-first; len ≤ Ways.
	tags [][]uint64

	Stats CacheStats
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses, Hits, Misses, Evictions int64
}

// HitRate returns hits/accesses (0 when idle).
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// NewCache builds a cache of the given capacity. Capacity must be an exact
// multiple of ways·lineSize and the resulting set count a power of two.
func NewCache(capacityBytes, ways, lineSize int) *Cache {
	if capacityBytes <= 0 || ways <= 0 || lineSize <= 0 {
		panic("memsys: cache parameters must be positive")
	}
	if capacityBytes%(ways*lineSize) != 0 {
		panic(fmt.Sprintf("memsys: capacity %d not divisible by ways*line %d", capacityBytes, ways*lineSize))
	}
	sets := capacityBytes / (ways * lineSize)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("memsys: set count %d must be a power of two", sets))
	}
	return &Cache{LineSize: lineSize, Ways: ways, Sets: sets, tags: make([][]uint64, sets)}
}

// Access touches the byte address and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.Stats.Accesses++
	line := addr / uint64(c.LineSize)
	set := int(line % uint64(c.Sets))
	tag := line / uint64(c.Sets)
	ways := c.tags[set]
	for i, t := range ways {
		if t == tag {
			// Move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	if len(ways) < c.Ways {
		ways = append(ways, 0)
	} else {
		c.Stats.Evictions++
	}
	copy(ways[1:], ways)
	ways[0] = tag
	c.tags[set] = ways
	return false
}

// DRAM is a first-order main-memory model.
type DRAM struct {
	Bandwidth     float64 // bytes/s
	AccessLatency float64 // seconds per independent access (row activation+CAS)
}

// DefaultDRAM returns DDR4-class parameters.
func DefaultDRAM() DRAM {
	return DRAM{
		Bandwidth:     25.6e9, // one DDR4-3200 channel
		AccessLatency: 60e-9,  // ~60 ns loaded latency
	}
}
