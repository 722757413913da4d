package frame

import (
	"sync"
	"sync/atomic"
)

// Frame-buffer pooling. The materialization hot path allocates one pixel
// buffer per frame per operator; under a training workload that is
// thousands of short-lived, identically-sized allocations per second.
// NewPooled/Recycle route those buffers through size-bucketed sync.Pool
// arenas so steady-state materialization reuses buffers instead of
// exercising the allocator and GC.
//
// Ownership rules:
//   - NewPooled returns a frame whose pixel contents are UNDEFINED; the
//     caller must overwrite every sample before the frame is read.
//   - Recycle hands the frame's buffer back to the pool and nils f.Pix,
//     so accidental use-after-recycle fails fast. Only recycle frames you
//     own exclusively — never frames shared through a cache.
//   - Frames that escape to callers who never Recycle are simply
//     collected by the GC; pooling is an optimization, not a contract.

var framePools struct {
	mu     sync.RWMutex
	bySize map[int]*sync.Pool
}

// poolCounters tracks pooled-buffer traffic for the metrics layer.
var poolCounters struct {
	gets   atomic.Int64 // NewPooled calls
	reuses atomic.Int64 // NewPooled calls served from the pool
}

func sizePool(n int) *sync.Pool {
	framePools.mu.RLock()
	p := framePools.bySize[n]
	framePools.mu.RUnlock()
	if p != nil {
		return p
	}
	framePools.mu.Lock()
	defer framePools.mu.Unlock()
	if framePools.bySize == nil {
		framePools.bySize = map[int]*sync.Pool{}
	}
	if p = framePools.bySize[n]; p == nil {
		p = &sync.Pool{}
		framePools.bySize[n] = p
	}
	return p
}

// NewPooled allocates a frame of the given geometry whose pixel buffer
// may come from the pool. The buffer contents are undefined: the caller
// must fully overwrite Pix. Use New when a zeroed buffer is required.
func NewPooled(w, h, c int) *Frame {
	n := w * h * c
	if n <= 0 {
		return New(w, h, c) // delegate validation panic
	}
	poolCounters.gets.Add(1)
	if v := sizePool(n).Get(); v != nil {
		poolCounters.reuses.Add(1)
		p := v.(*[]byte)
		return &Frame{W: w, H: h, C: c, Pix: *p, Index: -1, pooled: p}
	}
	pix := make([]byte, n)
	// The *[]byte wrapper rides along with the buffer through its whole
	// pool lifetime, so Recycle never re-boxes the slice header.
	return &Frame{W: w, H: h, C: c, Pix: pix, Index: -1, pooled: &pix}
}

// Recycle returns f's pixel buffer to the pool. The caller must own f
// exclusively; f is unusable afterwards (Pix is nilled).
func Recycle(f *Frame) {
	if f == nil || f.Pix == nil {
		return
	}
	pix := f.Pix
	wrapper := f.pooled
	f.Pix = nil
	f.pooled = nil
	if wrapper == nil {
		// Frame was built outside the pool (New, decode literal); box the
		// header once — it circulates with the buffer from here on.
		wrapper = &pix
	} else {
		*wrapper = pix
	}
	sizePool(len(pix)).Put(wrapper)
}

// PoolStats snapshots the package's buffer-pool counters under their
// full dotted names ("frame.pool.gets").
func PoolStats() map[string]int64 {
	return map[string]int64{
		"frame.pool.gets":   poolCounters.gets.Load(),
		"frame.pool.reuses": poolCounters.reuses.Load(),
	}
}
