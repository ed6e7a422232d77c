// Package par is the deterministic parallel tile execution engine.
//
// The paper's core performance claim (§II-A) is that crossbar MVMs and
// rank-1 updates are O(1) in array time because every tile operates in
// parallel. This package mirrors that decomposition in software: array
// operations are sharded into fixed row/column tiles that execute across a
// configurable number of workers.
//
// Determinism contract: results are bit-identical at every worker count.
// Two properties guarantee it:
//
//  1. The tile decomposition is fixed — Tiles/Bounds depend only on the
//     problem size, never on the worker count or on which worker picks up
//     which tile.
//  2. Every tile writes only tile-disjoint state, and any randomness a tile
//     consumes comes from a stream keyed by the tile index (see
//     rngutil.Source.Sub), never from a stream shared across tiles.
//
// Under those two rules the execution schedule cannot be observed, so a
// campaign table produced at -workers 1 is byte-identical to the same
// campaign at -workers 8 — the invariant the CI determinism leg enforces.
//
// Allocation contract: dispatch is allocation-free in steady state. Workers
// are persistent goroutines handed jobs directly off an idle stack, and the
// per-call job descriptors are recycled through a sync.Pool, so a hot
// kernel pays for its own closure and nothing else — the property the
// bench-report alloc budgets (≤2 allocs/op on every hot kernel) pin in CI.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// TileSpan is the tile extent: forward MVMs shard into TileSpan-row tiles,
// backward MVMs into TileSpan-column tiles, and updates into TileSpan-row
// tiles. The grid is fixed, like a physical crossbar tile: pulse updates
// draw from RNG streams keyed by tile index, so the span is part of every
// seeded result.
const TileSpan = 64

// BatchSpan is the sample-block extent of the batched forward kernel: the
// multi-sample grid shards into BatchSpan-sample blocks, so one load of a
// weight row feeds up to BatchSpan dot products. Every output element
// accumulates in the same order whatever the block boundaries, so the span
// moves no result bit, only how often a batch walks the weights.
const BatchSpan = 16

// workers holds the configured worker count; 0 means "use GOMAXPROCS at
// call time" (the default).
var workers atomic.Int32

// SetWorkers configures the number of workers used by Run. n <= 0 restores
// the default (GOMAXPROCS). Changing the worker count never changes
// results, only how many goroutines compute them.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int32(n))
}

// Workers reports the effective worker count Run will use.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Tiles reports how many TileSpan tiles cover [0, n).
func Tiles(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + TileSpan - 1) / TileSpan
}

// Bounds reports the half-open index range [lo, hi) of tile t over [0, n).
func Bounds(t, n int) (lo, hi int) {
	lo = t * TileSpan
	hi = lo + TileSpan
	if hi > n {
		hi = n
	}
	return lo, hi
}

// job is one Run invocation in flight: the tile function, the atomic tile
// cursor, and the completion accounting. Jobs are recycled through jobPool;
// refs counts every goroutine that may still touch the job (the submitting
// caller plus one per worker hand-off), and the job returns to the pool
// only when the last reference drops, so a helper that finishes after the
// caller has already returned can never observe a job that was reset for
// its next use. Hand-offs are direct (one job to one specific worker),
// never broadcast, so a job's references are bounded by the worker pool
// size and jobs recycle promptly.
type job struct {
	fn    func(t int)      // tile body (tile-index form)
	chunk func(lo, hi int) // chunk body (RunChunks form); nil for tile jobs
	tiles int              // grid size (tile jobs) or chunk count
	n     int              // total element count for chunk jobs
	next  atomic.Int64     // tile hand-out cursor
	done  atomic.Int64     // tiles completed
	refs  atomic.Int64     // goroutines that may still hold the job
	wg    sync.WaitGroup   // released when every tile has completed
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// workerState is one persistent pool goroutine. Its park channel carries at
// most one pending job: a worker is handed a job only by popping it off the
// idle stack (or at spawn), and it re-registers as idle exactly once per
// job taken, so a send can never block and a handed job is always worked.
type workerState struct {
	park chan *job
}

// idleWorkers is the stack of workers currently available for hand-off.
// The slice is reused, so steady-state push/pop does not allocate; the
// mutex is taken once per hand-off attempt (per Run, not per tile).
var (
	idleMu      sync.Mutex
	idleWorkers []*workerState
	live        atomic.Int64 // worker goroutines in existence
)

// workerCap bounds the persistent pool at a small multiple of the CPU
// count: goroutines beyond that add no parallelism, only stacks. Workers()
// may exceed this freely; the submitting caller always participates and
// correctness never depends on how many helpers exist.
var workerCap = func() int64 {
	c := int64(2*runtime.NumCPU() + 2)
	if c > 256 {
		c = 256
	}
	return c
}()

// worker is the persistent loop each pool goroutine runs: join the job it
// was spawned with, then forever register as idle, park until handed the
// next job, join it, drop the reference. A channel hand-off only ever
// follows an idle-stack pop, so each park send finds the buffer empty.
func worker(ws *workerState, first *job) {
	first.work()
	first.unref()
	for {
		idleMu.Lock()
		idleWorkers = append(idleWorkers, ws)
		idleMu.Unlock()
		j := <-ws.park
		j.work()
		j.unref()
	}
}

// work drains tiles from the job until the cursor passes the grid. The
// atomic cursor hands each tile to exactly one goroutine; completion is
// counted separately so the submitter's wait releases only after the last
// tile body has returned, never merely after the last tile was handed out.
func (j *job) work() {
	tiles := j.tiles
	for {
		t := int(j.next.Add(1)) - 1
		if t >= tiles {
			return
		}
		if j.chunk != nil {
			j.chunk(t*j.n/tiles, (t+1)*j.n/tiles)
		} else {
			j.fn(t)
		}
		if j.done.Add(1) == int64(tiles) {
			j.wg.Done()
		}
	}
}

// unref drops one reference and recycles the job when the last holder lets
// go.
func (j *job) unref() {
	if j.refs.Add(-1) == 0 {
		j.fn = nil
		j.chunk = nil
		jobPool.Put(j)
	}
}

// dispatch runs a prepared job across the pool: hand the job to up to extra
// available workers (popping parked ones off the idle stack, spawning
// persistent ones while under workerCap, and simply keeping the tiles when
// neither is possible), join the job on the calling goroutine, then wait
// for the last tile to complete. A hand-off never blocks: the park channel
// is 1-buffered and the idle-token discipline guarantees at most one
// outstanding send per worker.
func dispatch(j *job, extra int) {
	j.next.Store(0)
	j.done.Store(0)
	j.wg.Add(1)
	j.refs.Store(1) // the caller's reference
	for w := 0; w < extra; w++ {
		idleMu.Lock()
		var ws *workerState
		if n := len(idleWorkers); n > 0 {
			ws = idleWorkers[n-1]
			idleWorkers[n-1] = nil
			idleWorkers = idleWorkers[:n-1]
		}
		idleMu.Unlock()
		if ws == nil {
			if live.Add(1) > workerCap {
				// Pool at capacity and everyone is busy: plenty of runnable
				// work already; keep the remaining tiles for the caller.
				live.Add(-1)
				break
			}
			j.refs.Add(1)
			go worker(&workerState{park: make(chan *job, 1)}, j)
			continue
		}
		j.refs.Add(1)
		ws.park <- j
	}
	j.work()
	j.wg.Wait()
	j.unref()
}

// Run executes fn(t) once for every tile index t in [0, tiles), across up
// to Workers() goroutines (the caller participates). Tiles are handed out
// by an atomic counter, so the assignment of tiles to workers — and the
// completion order — is unspecified; fn must follow the package
// determinism contract (tile-disjoint writes, tile-keyed randomness) so
// that the schedule is unobservable. Run returns when every tile has
// completed.
func Run(tiles int, fn func(t int)) {
	p := Workers()
	if p > tiles {
		p = tiles
	}
	if p <= 1 {
		RunSeq(tiles, fn)
		return
	}
	note(tiles, p, false)
	j := jobPool.Get().(*job)
	j.fn = fn
	j.chunk = nil
	j.tiles = tiles
	dispatch(j, p-1)
}

// RunChunks splits [0, n) into one contiguous chunk per worker (at most
// Workers() chunks, each at least a tile span wide when n allows) and executes
// fn(lo, hi) for each. Unlike Tiles/Bounds, the chunk boundaries DO depend
// on the worker count — so RunChunks is only for kernels whose per-element
// results are independent of the split (element-disjoint outputs, each
// accumulated in a fixed order; no randomness). MVM kernels qualify; pulse
// updates do not (their per-tile RNG streams need the fixed tile grid).
// Fewer, wider chunks keep each worker streaming long contiguous runs of
// the matrix instead of hopping between narrow strips.
func RunChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Workers()
	if max := Tiles(n); p > max {
		p = max
	}
	if p <= 1 {
		noteChunks(1)
		fn(0, n)
		return
	}
	noteChunks(p)
	j := jobPool.Get().(*job)
	j.fn = nil
	j.chunk = fn
	j.tiles = p
	j.n = n
	dispatch(j, p-1)
}

// RunSeq executes fn(t) for t = 0..tiles-1 in ascending order on the
// calling goroutine. It is the execution mode for operations whose
// side-channel ordering must stay fixed (fault-hook callbacks observe the
// op stream in tile order), and — by the determinism contract — produces
// exactly the same results Run would.
func RunSeq(tiles int, fn func(t int)) {
	note(tiles, 1, true)
	for t := 0; t < tiles; t++ {
		fn(t)
	}
}
