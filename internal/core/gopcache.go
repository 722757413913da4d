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
// One mutex guards the map and every entry. Decodes and derived frames
// are computed outside it and published first-wins, so nothing waits on
// another goroutine's work.
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

	// Every field below is guarded by gopCache.mu.
	refs    int
	lastUse int64 // clock at the last acquire
	bytes   int64

	// A held frame is immutable and shared read-only across samples.
	frames []*frame.Frame

	// derived holds frames computed *from* this GOP's decoded frames —
	// superset-crop regions shared by overlapping views — keyed by a
	// deterministic descriptor. The first frame published under a
	// descriptor stays; it is accounted into bytes and dropped with the
	// entry.
	derived map[string]*frame.Frame
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
// re-roll costs the distance to the nearest held frame below it. The
// decode runs outside the cache lock; if another roll published idx
// meanwhile, its frame is returned and this one is dropped uncharged. A
// failed roll keeps nothing and charges no bytes, but counts the frames
// it decoded. Callers must hold a reference on e.
func (c *gopCache) roll(ent *dataset.Entry, e *gopEntry, idx int) (*frame.Frame, error) {
	i := idx - e.key.start
	c.mu.Lock()
	if i < len(e.frames) && e.frames[i] != nil {
		f := e.frames[i]
		c.mu.Unlock()
		return f, nil
	}
	from := min(i, len(e.frames)) - 1
	for from >= 0 && e.frames[from] == nil {
		from--
	}
	var prime *frame.Frame
	if from >= 0 {
		prime = e.frames[from]
	}
	c.mu.Unlock()

	v := ent.Video
	dec := codec.NewDecoder(v, nil)
	if prime != nil {
		if err := dec.Prime(prime, e.key.start+from); err != nil {
			return nil, err
		}
	}
	target := frame.New(v.W, v.H, v.C)
	var scratch *frame.Frame
	if i-from > 1 {
		scratch = frame.New(v.W, v.H, v.C)
	}
	for j := from + 1; j <= i; j++ {
		dst := target
		if (i-j)%2 == 1 {
			dst = scratch
		}
		if err := dec.DecodeNext(e.key.start+j, dst); err != nil {
			return nil, err
		}
		c.framesDecoded.Add(1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= len(e.frames) {
		e.frames = append(e.frames, make([]*frame.Frame, i+1-len(e.frames))...)
	}
	if won := e.frames[i]; won != nil {
		return won, nil
	}
	e.frames[i] = target
	c.chargeLocked(e, int64(target.Bytes()))
	return target, nil
}

// chargeLocked charges bytes newly held by e and enforces the budget.
// Caller holds c.mu.
func (c *gopCache) chargeLocked(e *gopEntry, bytes int64) {
	e.bytes += bytes
	c.bytes.Add(bytes)
	c.evictLocked()
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

// derivedFrame returns the frame published in e under descriptor dk, or
// nil if there is none yet. The frame is shared read-only.
func (c *gopCache) derivedFrame(e *gopEntry, dk string) *frame.Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return e.derived[dk]
}

// publishDerived publishes f under descriptor dk in e unless a frame was
// published there first, and returns the frame that stays published.
// Only that frame is accounted into the entry and the cache budget —
// heavy superset reuse competes with raw decoded frames for the same
// memory. The caller must hold a reference on e (a lease pin) and must
// not mutate the returned frame.
func (c *gopCache) publishDerived(e *gopEntry, dk string, f *frame.Frame) *frame.Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	if won := e.derived[dk]; won != nil {
		return won
	}
	if e.derived == nil {
		e.derived = map[string]*frame.Frame{}
	}
	e.derived[dk] = f
	c.chargeLocked(e, int64(f.Bytes()))
	return f
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
