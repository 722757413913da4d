package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sand/internal/codec"
	"sand/internal/dataset"
	"sand/internal/frame"
	"sand/internal/obs"
)

// gopCache is the cross-sample decoded-GOP cache: samples whose frame
// indices land in the same group of pictures decode it once and share the
// reconstructed frames. This is where the paper's decode-amplification
// argument pays off at runtime — random access to frame n costs decoding
// the whole keyframe-to-n prefix, so a GOP's entry keeps the frames
// samples asked for and rolls forward from the nearest of them instead of
// from the keyframe. Frames nobody asked for pass through one scratch
// buffer and are not kept.
//
// Entries are ref-counted: a materialization pins every GOP it touches
// through a gopLease and releases them when the sample completes, so
// eviction can never drop a GOP out from under a running sample. Cached
// frames are shared read-only.
//
// The cache is bounded by a fixed byte budget; eviction is
// least-recently-used among unpinned entries. Its footprint feeds the
// scheduler's memory-pressure signal (Service.memPressure), but the
// budget does not move with it.
type gopCache struct {
	budget int64
	tr     *obs.Tracer // may be nil (tracing calls are nil-safe)

	mu      sync.Mutex
	entries map[gopKey]*gopEntry
	clock   int64 // LRU tick

	// bytes is the decoded-frame footprint. Mutated only under mu, but
	// atomic so the scheduler's memory-pressure callback (sampled at every
	// dequeue) reads it without touching the cache lock.
	bytes atomic.Int64

	// Counters behind the core.gop_* obs names; atomic so the snapshot
	// reads them without the cache lock.
	hits, misses, evictions, framesDecoded atomic.Int64
}

type gopKey struct {
	video string
	start int // keyframe index opening the GOP
}

// gopEntry holds the requested frames of one GOP: frames[i] is the
// reconstructed frame start+i if some caller asked for it, and nil
// otherwise. The deepest frame decoded so far is always held, because a
// roll decodes only up to the frame it was asked for.
type gopEntry struct {
	key gopKey

	// guarded by gopCache.mu
	refs    int
	lastUse int64 // clock at the last acquire
	bytes   int64

	// derived caches frames computed *from* this GOP's decoded frames —
	// superset-crop regions shared by overlapping views — keyed by a
	// deterministic descriptor. Publication is single-flight: the first
	// claimant computes, peers wait on the slot. Guarded by gopCache.mu;
	// accounted into bytes and dropped with the entry.
	derived map[string]*derivedSlot

	// mu serializes rolls, so concurrent requests for one frame decode it
	// once; a held frame is immutable and shared read-only across samples.
	mu     sync.Mutex
	frames []*frame.Frame
}

func newGOPCache(budget int64) *gopCache {
	if budget <= 0 {
		budget = 64 << 20
	}
	return &gopCache{budget: budget, entries: map[gopKey]*gopEntry{}}
}

// acquire pins the GOP containing idx, creating its (empty) entry on
// first touch; frames are decoded by roll. The caller must release the
// returned entry exactly once.
func (c *gopCache) acquire(ent *dataset.Entry, idx int) (*gopEntry, error) {
	k, err := ent.Video.KeyframeBefore(idx)
	if err != nil {
		return nil, err
	}
	key := gopKey{video: ent.Spec.Name, start: k}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if e, ok := c.entries[key]; ok {
		e.refs++
		e.lastUse = c.clock
		c.hits.Add(1)
		return e, nil
	}
	e := &gopEntry{key: key, refs: 1, lastUse: c.clock}
	c.entries[key] = e
	c.misses.Add(1)
	return e, nil
}

// roll returns the shared frame idx of e's GOP, decoding it if it is not
// held: a decoder primed with the nearest held frame below idx (or, with
// none, starting at the keyframe) rolls forward through one scratch
// frame that alternates with the new target by parity, so idx lands in
// the target and no step writes its own reference. Only idx is kept, so
// an extension and a re-roll of an unkept frame are the same code, and a
// re-roll costs the distance to the nearest held frame below it. A failed
// roll keeps nothing and charges no bytes, but counts the frames it
// decoded. Callers must hold a reference on e.
func (c *gopCache) roll(ent *dataset.Entry, e *gopEntry, idx int) (*frame.Frame, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := idx - e.key.start
	if i < len(e.frames) && e.frames[i] != nil {
		return e.frames[i], nil
	}
	v := ent.Video
	dec := codec.NewDecoder(v, nil)
	from := min(i, len(e.frames)) - 1
	for from >= 0 && e.frames[from] == nil {
		from--
	}
	if from >= 0 {
		if err := dec.Prime(e.frames[from], e.key.start+from); err != nil {
			return nil, err
		}
	}
	target := frame.New(v.W, v.H, v.C)
	var scratch *frame.Frame
	if i-from > 1 {
		scratch = frame.New(v.W, v.H, v.C)
	}
	var n int64
	for j := from + 1; j <= i; j++ {
		dst := target
		if (i-j)%2 == 1 {
			dst = scratch
		}
		if err := dec.DecodeNext(e.key.start+j, dst); err != nil {
			c.account(e, 0, n)
			return nil, err
		}
		n++
	}
	if i >= len(e.frames) {
		e.frames = append(e.frames, make([]*frame.Frame, i+1-len(e.frames))...)
	}
	e.frames[i] = target
	c.account(e, int64(target.Bytes()), n)
	return target, nil
}

// account records freshly decoded bytes/frames and enforces the budget.
func (c *gopCache) account(e *gopEntry, bytes, frames int64) {
	c.mu.Lock()
	e.bytes += bytes
	c.bytes.Add(bytes)
	c.framesDecoded.Add(frames)
	c.evictLocked()
	c.mu.Unlock()
}

// release unpins an entry and evicts if the cache is over budget.
func (c *gopCache) release(e *gopEntry) {
	c.mu.Lock()
	if e.refs <= 0 {
		c.mu.Unlock()
		panic(fmt.Sprintf("core: gop cache release without acquire: %+v", e.key))
	}
	e.refs--
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked drops unpinned GOPs until the cache fits its budget, least
// recently used first. Pinned entries are never dropped; their frames
// stay valid for every lease holder.
func (c *gopCache) evictLocked() {
	var dropped, freed int64
	for c.bytes.Load() > c.budget {
		var victim *gopEntry
		for _, e := range c.entries {
			if e.refs == 0 && (victim == nil || e.lastUse < victim.lastUse) {
				victim = e
			}
		}
		if victim == nil {
			break // everything pinned: over-budget until releases arrive
		}
		delete(c.entries, victim.key)
		c.bytes.Add(-victim.bytes)
		dropped++
		freed += victim.bytes
		c.evictions.Add(1)
		// Frames are shared read-only and may still be referenced by
		// batches in flight; the GC reclaims them.
	}
	if dropped > 0 && c.tr.Enabled() {
		c.tr.Instant("core", "gop_evict", 0, fmt.Sprintf("%d gops, %d bytes", dropped, freed))
	}
}

// bytesNow returns the cache's current decoded-frame footprint. It is a
// single atomic load so the combined memPressure feed stays lock-free.
func (c *gopCache) bytesNow() int64 {
	return c.bytes.Load()
}

// derivedSlot is one single-flight derived-frame computation. The first
// claimant becomes the leader and computes; everyone else blocks on
// ready. f stays nil if the leader abandoned (error or deadline).
type derivedSlot struct {
	f     *frame.Frame
	ready chan struct{} // closed on publish or abandon
}

// claimDerived resolves descriptor dk in e with single-flight semantics:
//
//   - (f, nil): the frame is published — use it, never mutate it.
//   - (nil, slot): the caller is the leader and MUST finish the flight
//     with publishDerived or abandonDerived, or peers block forever.
//   - (nil, nil): a previous leader abandoned while the caller waited —
//     compute privately without publishing.
//
// Waiting happens off the cache lock. The caller must hold a reference
// on e (a lease pin) so the entry cannot be evicted mid-flight.
func (c *gopCache) claimDerived(e *gopEntry, dk string) (*frame.Frame, *derivedSlot) {
	c.mu.Lock()
	slot := e.derived[dk]
	if slot == nil {
		slot = &derivedSlot{ready: make(chan struct{})}
		if e.derived == nil {
			e.derived = map[string]*derivedSlot{}
		}
		e.derived[dk] = slot
		c.mu.Unlock()
		return nil, slot
	}
	c.mu.Unlock()
	<-slot.ready
	return slot.f, nil
}

// publishDerived completes a flight opened by claimDerived, accounting
// the frame into the entry and the cache budget — heavy superset reuse
// competes with raw decoded frames for the same memory. The published
// frame is shared read-only; the caller must not mutate it.
func (c *gopCache) publishDerived(e *gopEntry, slot *derivedSlot, f *frame.Frame) {
	c.mu.Lock()
	slot.f = f
	b := int64(f.Bytes())
	e.bytes += b
	c.bytes.Add(b)
	c.evictLocked()
	c.mu.Unlock()
	close(slot.ready)
}

// abandonDerived completes a failed flight: the slot is removed so a
// later claimant can retry, and waiters observe a nil frame.
func (c *gopCache) abandonDerived(e *gopEntry, dk string, slot *derivedSlot) {
	c.mu.Lock()
	if e.derived[dk] == slot {
		delete(e.derived, dk)
	}
	c.mu.Unlock()
	close(slot.ready)
}

// lease opens a per-materialization view of the cache that pins each
// touched GOP once and releases them all when the sample completes.
func (c *gopCache) lease() *gopLease {
	return &gopLease{c: c, held: map[gopKey]*gopEntry{}}
}

// frameOnce serves a single decoded frame with no lasting pin — the
// one-shot path for frame views. The returned frame stays valid after
// release: eviction only drops the cache's reference to it.
func (c *gopCache) frameOnce(ent *dataset.Entry, idx int) (*frame.Frame, error) {
	e, err := c.acquire(ent, idx)
	if err != nil {
		return nil, err
	}
	defer c.release(e)
	return c.roll(ent, e, idx)
}

// gopLease tracks the GOP entries one sample materialization has pinned.
// It belongs to the goroutine materializing the sample.
type gopLease struct {
	c    *gopCache
	held map[gopKey]*gopEntry
}

// frame returns the shared decoded frame idx of ent's video, pinning its
// GOP for the lifetime of the lease. The frame is shared read-only: the
// caller must not mutate it.
func (l *gopLease) frame(ent *dataset.Entry, idx int) (*frame.Frame, error) {
	e, err := l.entryFor(ent, idx)
	if err != nil {
		return nil, err
	}
	return l.c.roll(ent, e, idx)
}

// entryFor returns the pinned entry covering frame idx of ent's video,
// pinning its GOP on first touch, without decoding anything.
func (l *gopLease) entryFor(ent *dataset.Entry, idx int) (*gopEntry, error) {
	k, err := ent.Video.KeyframeBefore(idx)
	if err != nil {
		return nil, err
	}
	key := gopKey{video: ent.Spec.Name, start: k}
	if e, ok := l.held[key]; ok {
		return e, nil
	}
	e, err := l.c.acquire(ent, idx)
	if err != nil {
		return nil, err
	}
	l.held[key] = e
	return e, nil
}

// release unpins every GOP the lease holds. The lease is unusable after.
func (l *gopLease) release() {
	for _, e := range l.held {
		l.c.release(e)
	}
	l.held = nil
}
