// Package storage implements SAND's training-object store (§6 of the
// paper): a two-tier cache (memory + disk) with exact byte accounting, a
// 75%-threshold eviction policy (used-and-unneeded objects first, then
// longest-deadline objects), lossless compression for persisted frames,
// and crash recovery by scanning previously persisted objects.
//
// The store is hash-sharded: keys map to N sub-stores (N a power of two
// near GOMAXPROCS by default, Options.Shards to override), each with its
// own mutex and object maps, so concurrent demand-feed and
// pre-materialization threads only contend when they touch the same
// shard. Byte accounting is global and atomic — MemBytes and MemPressure
// (sampled by the scheduler at every dequeue) are single atomic loads,
// never lock acquisitions. Eviction is a per-shard pass driven by the
// global watermark: the used-and-unneeded ephemeral class drains first
// under per-shard quotas proportional to each shard's share of it, then
// a fairness sweep merges the shards' remaining candidates in global
// priority order — one victim at a time from whichever shard holds the
// globally best one — so a cold shard cannot strand the budget and a
// shard holding a large urgent object is never over-billed. With a
// single shard the store reproduces the exact global eviction order of
// the unsharded design; with N shards the evicted set can differ only
// within the used-ephemeral class (see DESIGN.md for the documented
// fairness tolerance).
//
// Objects can be leased by reference: GetPinned returns the payload
// together with a ref-counted Pin that keeps it memory-resident —
// eviction passes skip pinned objects — so the network dataplane can
// write cached bytes straight to a socket (writev) without copying them
// out of the store first. See DESIGN.md ("Zero-copy dataplane").
//
// With an observability registry attached (Options.Obs), the store
// exposes global and per-shard occupancy gauges (including pinned
// bytes) and hit/miss/eviction counters, and traces watermark crossings
// and per-shard eviction passes (internal/obs).
package storage

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sand/internal/obs"
)

// Object is one materialized training object: the serialized bytes of a
// frame, augmented frame or assembled sample, plus scheduling metadata.
type Object struct {
	// Key is the object's unique path-like identifier (Table 1 scheme).
	Key string
	// Data is the serialized payload.
	Data []byte
	// Deadline is the iteration by which the object is needed; lower is
	// more urgent. Used by the eviction policy.
	Deadline int64
	// Used marks that the object has been consumed at least once.
	Used bool
	// Ephemeral objects will not be needed in future epochs (safe to
	// evict first once used).
	Ephemeral bool
	// Heat is the object's popularity score — for derived superset
	// frames, the owning GOP-cache entry's observed acquire count at
	// store time. Within an eviction class, colder objects evict first,
	// so hot derived supersets stay memory-resident in their
	// decode-cheap form while cold ones spill (compressed) to disk.
	// Zero everywhere reproduces the legacy heat-blind order exactly.
	Heat int64

	// pins is the number of outstanding Pin leases on this object while
	// it is memory-resident. A pinned object is skipped by eviction
	// passes (its bytes may be mid-flight on a zero-copy response), so
	// Data can be handed to the network tier by reference. Guarded by
	// the owning shard's mutex.
	pins int32
}

// ErrNotFound is returned when a key is absent from the store.
var ErrNotFound = errors.New("storage: object not found")

// ErrDiskBudget is wrapped by writes the disk tier refuses because they
// would exceed Options.DiskBudget.
var ErrDiskBudget = errors.New("storage: disk budget exhausted")

// EvictionThreshold is the fill fraction beyond which the store evicts
// (the paper uses 75% of the designated budget).
const EvictionThreshold = 0.75

// maxShards bounds Options.Shards (and the GOMAXPROCS-derived default).
const maxShards = 256

// Stats reports store counters.
type Stats struct {
	MemBytes    int64
	DiskBytes   int64
	MemObjects  int
	DiskObjects int
	// PinnedBytes is the memory-tier bytes currently held by Pin leases
	// (ineligible for eviction until released).
	PinnedBytes int64
	Hits        int64
	Misses      int64
	Evictions   int64
	Spills      int64
	// Promotions counts disk-tier reads that loaded an object back into
	// memory; concurrent readers of the same spilled key are collapsed
	// into one promotion (singleflight).
	Promotions int64
	// EvictStorms counts detected eviction storms: stormPasses evicting
	// passes inside stormWindow (see Options.OnEvictStorm).
	EvictStorms int64
	// CompressedSpills counts cold (zero-heat) spills that landed on disk
	// flate-compressed; SpillBytesSaved is the bytes that compression
	// shaved off them.
	CompressedSpills int64
	SpillBytesSaved  int64
}

// Eviction-storm detection: this many evicting passes within the window
// means the store is churning — its working set no longer fits — and the
// storm hook fires (at most once per cooldown).
const (
	stormPasses   = 8
	stormWindow   = time.Second
	stormCooldown = 5 * time.Second
)

// shard is one hash-partitioned sub-store. Both tiers' metadata maps for
// a key live in the key's shard, so every per-key operation takes exactly
// one shard mutex.
type shard struct {
	mu     sync.Mutex
	mem    map[string]*Object
	disk   map[string]diskEntry
	promos map[string]*promotion // in-flight disk->memory promotions

	// gen counts mutations of the memory tier (insert, delete, evict,
	// priority flag change). Eviction passes cache a priority-sorted
	// candidate snapshot per shard and use gen to detect staleness, so an
	// untouched shard costs one lock acquisition and a comparison per
	// pass instead of a rescan. Guarded by mu.
	gen uint64

	// memBytes mirrors the shard's share of Store.memBytes; read without
	// the shard mutex by eviction quota math and the per-shard gauges.
	memBytes atomic.Int64

	// pinnedBytes is the shard's share of pin-leased bytes; read without
	// the shard mutex by the per-shard gauges.
	pinnedBytes atomic.Int64

	_ [64]byte // pad shards onto separate cache lines
}

// promotion is one in-flight disk read being shared by every concurrent
// Get of the same spilled key.
type promotion struct {
	done chan struct{} // closed once obj/err are set
	obj  *Object
	err  error
}

// Store is the two-tier sharded object store. All methods are safe for
// concurrent use.
type Store struct {
	memBudget    int64
	diskBudget   int64
	dir          string // disk tier directory; "" disables the disk tier
	coldCompress bool

	shards []shard
	mask   uint32

	// Global accounting: single atomic adds on mutation, single atomic
	// loads on the scheduler-sampled read paths (MemBytes, MemPressure).
	memBytes    atomic.Int64
	diskBytes   atomic.Int64
	pinnedBytes atomic.Int64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	spills     atomic.Int64
	promotions atomic.Int64

	// Popularity-tier counters: cold spills written compressed, and the
	// bytes that saved.
	compressedSpills atomic.Int64
	spillSaved       atomic.Int64

	// evictMu serializes eviction passes so concurrent over-watermark
	// Puts do not stampede into redundant passes. Plain Put/Get/Delete
	// traffic never touches it below the watermark.
	evictMu sync.Mutex

	// Eviction-pass state, all guarded by evictMu: per-shard candidate
	// snapshots sorted in eviction-priority order (cand[i][candPos[i]:]
	// is shard i's remaining victims, valid while candGen[i] matches the
	// shard's gen), and per-pass eviction tallies for the shard-tagged
	// evict_pass spans.
	cand                   [][]victim
	candGen                []uint64
	candPos                []int
	candOK                 []bool
	passEvicted, passFreed []int64

	// Eviction-storm detection, guarded by evictMu (pass timestamps are
	// only written by the pass holder). onStorm fires outside all locks.
	onStorm    func(reason string)
	stormTimes []time.Time // timestamps of recent evicting passes (ring)
	stormIdx   int
	stormLast  time.Time // last hook invocation (cooldown)
	storms     atomic.Int64

	tr    *obs.Tracer
	above atomic.Bool // watermark crossing state, maintained tracer-on or -off
}

type diskEntry struct {
	path string
	size int64
}

// Options configures a store.
type Options struct {
	// MemBudget caps the memory tier in bytes.
	MemBudget int64
	// DiskBudget caps the disk tier in bytes (0 with Dir set means
	// unlimited).
	DiskBudget int64
	// Dir is the disk tier directory; empty disables persistence.
	Dir string
	// Shards is the sub-store count; it is rounded up to a power of two
	// and capped at 256. 0 picks a power of two near GOMAXPROCS. 1
	// reproduces the exact global eviction order of the unsharded store.
	Shards int
	// Obs receives store gauges, counters and trace events. Nil means
	// no registration (tracing calls are nil-safe no-ops).
	Obs *obs.Registry
	// ColdCompress opts spills of cold (zero-heat) objects into flate
	// compression on the disk tier (the popularity-tiered layout). Off,
	// every spill is written verbatim — the legacy byte-accounting
	// contract.
	ColdCompress bool
	// OnEvictStorm is invoked — outside store locks — when an eviction
	// storm is detected (stormPasses evicting passes within stormWindow,
	// rate-limited to one invocation per stormCooldown). The engine
	// points this at the flight recorder so churn dumps the trace ring.
	OnEvictStorm func(reason string)
}

// shardCount resolves Options.Shards to a power of two in [1, maxShards].
func shardCount(req int) int {
	n := req
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Open creates a store, recovering any objects already persisted in
// Options.Dir (the crash-recovery path of §5.5: step 2, scanning disk for
// previously persisted objects). The on-disk layout is shard-independent,
// so a directory written with one shard count recovers under any other.
func Open(opts Options) (*Store, error) {
	if opts.MemBudget <= 0 {
		return nil, fmt.Errorf("storage: memory budget must be positive")
	}
	n := shardCount(opts.Shards)
	s := &Store{
		memBudget:    opts.MemBudget,
		diskBudget:   opts.DiskBudget,
		dir:          opts.Dir,
		coldCompress: opts.ColdCompress,
		shards:       make([]shard, n),
		mask:         uint32(n - 1),
		tr:           opts.Obs.Trace(),
		onStorm:      opts.OnEvictStorm,
		stormTimes:   make([]time.Time, stormPasses),
	}
	for i := range s.shards {
		s.shards[i].mem = map[string]*Object{}
		s.shards[i].disk = map[string]diskEntry{}
	}
	s.cand = make([][]victim, n)
	s.candGen = make([]uint64, n)
	s.candPos = make([]int, n)
	s.candOK = make([]bool, n)
	s.passEvicted = make([]int64, n)
	s.passFreed = make([]int64, n)
	if r := opts.Obs; r != nil {
		r.Gauge("storage.mem_bytes", func() float64 { return float64(s.MemBytes()) })
		r.Gauge("storage.pinned_bytes", func() float64 { return float64(s.PinnedBytes()) })
		r.Gauge("storage.pressure", s.MemPressure)
		for i := range s.shards {
			sh := &s.shards[i]
			r.Gauge(fmt.Sprintf("storage.shard.%d.mem_bytes", i), func() float64 {
				return float64(sh.memBytes.Load())
			})
			r.Gauge(fmt.Sprintf("storage.shard.%d.pinned_bytes", i), func() float64 {
				return float64(sh.pinnedBytes.Load())
			})
			r.Gauge(fmt.Sprintf("storage.shard.%d.objects", i), func() float64 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return float64(len(sh.mem))
			})
		}
		r.SnapshotFunc("storage", func() map[string]int64 {
			st := s.Stats()
			return map[string]int64{
				"hits":         st.Hits,
				"misses":       st.Misses,
				"evictions":    st.Evictions,
				"spills":       st.Spills,
				"promotions":   st.Promotions,
				"mem_objects":  int64(st.MemObjects),
				"disk_objects": int64(st.DiskObjects),
				"disk_bytes":   st.DiskBytes,
				"shards":       int64(len(s.shards)),
				"evict_storms": st.EvictStorms,
			}
		})
		r.SnapshotFunc("storage.tier", func() map[string]int64 {
			var hotObjs, hotBytes int64
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				for _, o := range sh.mem {
					if o.Heat > 0 {
						hotObjs++
						hotBytes += int64(len(o.Data))
					}
				}
				sh.mu.Unlock()
			}
			return map[string]int64{
				"hot_objects":       hotObjs,
				"hot_bytes":         hotBytes,
				"compressed_spills": s.compressedSpills.Load(),
				"spill_bytes_saved": s.spillSaved.Load(),
			}
		})
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Shards returns the store's shard count.
func (s *Store) Shards() int { return len(s.shards) }

// shardFor hashes key (FNV-1a) to its shard.
func (s *Store) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h&s.mask]
}

// recover scans the disk tier and re-registers persisted objects.
func (s *Store) recover() error {
	return filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		suffix := ""
		switch {
		case strings.HasSuffix(path, ".objz"):
			suffix = ".objz" // cold spill, flate-compressed
		case strings.HasSuffix(path, ".obj"):
			suffix = ".obj"
		}
		if d.IsDir() || suffix == "" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(s.dir, path)
		if err != nil {
			return err
		}
		key := "/" + strings.TrimSuffix(filepath.ToSlash(rel), suffix)
		s.shardFor(key).disk[key] = diskEntry{path: path, size: info.Size()}
		s.diskBytes.Add(info.Size())
		return nil
	})
}

// diskPath maps a key to its file path.
func (s *Store) diskPath(key string) string {
	return filepath.Join(s.dir, filepath.FromSlash(strings.TrimPrefix(key, "/"))+".obj")
}

// watermark is the eviction threshold in bytes.
func (s *Store) watermark() int64 {
	return int64(float64(s.memBudget) * EvictionThreshold)
}

// noteWatermark maintains the above-75% crossing state after every byte
// movement — tracer enabled or not, so enabling tracing mid-run neither
// misses nor duplicates the next crossing event. The CAS makes racing
// callers emit each crossing exactly once.
func (s *Store) noteWatermark(total int64) {
	above := total > s.watermark()
	if s.above.Load() == above {
		return
	}
	if s.above.CompareAndSwap(!above, above) {
		if above {
			s.tr.Instant("storage", "watermark", 0, "above 75%")
		} else {
			s.tr.Instant("storage", "watermark", 0, "below 75%")
		}
	}
}

// Put inserts or replaces an object in the memory tier, evicting (and
// spilling to disk) as needed to respect the budget.
func (s *Store) Put(obj *Object) error {
	if obj == nil || obj.Key == "" {
		return fmt.Errorf("storage: object needs a key")
	}
	if !strings.HasPrefix(obj.Key, "/") {
		return fmt.Errorf("storage: key %q must be absolute (start with /)", obj.Key)
	}
	size := int64(len(obj.Data))
	if size > s.memBudget {
		return fmt.Errorf("storage: object %s (%d bytes) exceeds memory budget %d", obj.Key, size, s.memBudget)
	}
	sh := s.shardFor(obj.Key)
	sh.mu.Lock()
	if old, ok := sh.mem[obj.Key]; ok {
		d := int64(len(old.Data))
		sh.memBytes.Add(-d)
		s.memBytes.Add(-d)
		if old.pins > 0 {
			// The displaced object leaves residency while pinned: settle
			// its pinned-byte accounting now. Pin holders keep the old
			// bytes alive and immutable through their own references.
			sh.pinnedBytes.Add(-d)
			s.pinnedBytes.Add(-d)
		}
	}
	sh.mem[obj.Key] = obj
	sh.memBytes.Add(size)
	sh.gen++
	total := s.memBytes.Add(size)
	sh.mu.Unlock()
	s.noteWatermark(total)
	return s.maybeEvict()
}

// Get returns the object for key, promoting a disk-tier object into
// memory. The returned object is shared; callers must not mutate Data.
// Concurrent Gets of the same spilled key are collapsed into a single
// disk read (singleflight): one reader promotes, the rest wait for it.
func (s *Store) Get(key string) (*Object, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if obj, ok := sh.mem[key]; ok {
		sh.mu.Unlock()
		s.hits.Add(1)
		return obj, nil
	}
	ent, onDisk := sh.disk[key]
	if !onDisk {
		sh.mu.Unlock()
		s.misses.Add(1)
		// Bare sentinel: misses are the common case on the probe-heavy
		// materialization path and must not allocate a formatted error.
		return nil, ErrNotFound
	}
	if p, inflight := sh.promos[key]; inflight {
		sh.mu.Unlock()
		<-p.done
		if p.err != nil {
			return nil, p.err
		}
		s.hits.Add(1)
		return p.obj, nil
	}
	p := &promotion{done: make(chan struct{})}
	if sh.promos == nil {
		sh.promos = map[string]*promotion{}
	}
	sh.promos[key] = p
	sh.mu.Unlock()

	data, err := readFile(ent.path)
	if err == nil && strings.HasSuffix(ent.path, ".objz") {
		data, err = inflateAll(data)
	}
	if errors.Is(err, os.ErrNotExist) {
		// The entry was deleted between the lookup and the read; report
		// a plain miss, as if the Get had lost the race to the Delete.
		p.err = ErrNotFound
	} else if err != nil {
		p.err = fmt.Errorf("storage: disk tier read %s: %w", key, err)
	} else {
		p.obj = &Object{Key: key, Data: data}
		s.promotions.Add(1)
		// Re-insert before clearing the flight, so a Get arriving in
		// between finds either the flight or the memory copy and never
		// reads the disk twice. A refused Put is not fatal: every reader
		// is served from the read copy.
		_ = s.Put(p.obj)
	}
	sh.mu.Lock()
	delete(sh.promos, key)
	sh.mu.Unlock()
	close(p.done)
	if p.err != nil {
		return nil, p.err
	}
	s.hits.Add(1)
	return p.obj, nil
}

// Pin is a reference-counted lease on a memory-resident object: while
// any pin is outstanding, eviction passes skip the object, so its Data
// can be handed to the network tier by reference (a writev segment)
// without risking the bytes leaving the cache mid-write. Pins nest: the
// object stays ineligible until every pin is released. Release is
// idempotent and safe to call on a nil pin.
type Pin struct {
	s   *Store
	sh  *shard
	obj *Object
}

// pinLocked acquires a pin on a resident object. Caller holds sh.mu.
// The 0->1 transition bumps the shard generation so a cached eviction
// snapshot that still lists the object is invalidated before it can be
// chosen as a victim.
func (s *Store) pinLocked(sh *shard, obj *Object) *Pin {
	if obj.pins == 0 {
		d := int64(len(obj.Data))
		sh.pinnedBytes.Add(d)
		s.pinnedBytes.Add(d)
		sh.gen++
	}
	obj.pins++
	return &Pin{s: s, sh: sh, obj: obj}
}

// Release drops the lease. On the last release of a still-resident
// object the bytes become evictable again. If the object was deleted or
// replaced while pinned, its pinned-byte accounting was already settled
// at that point and Release only drops the reference.
func (p *Pin) Release() {
	if p == nil || p.obj == nil {
		return
	}
	sh, obj := p.sh, p.obj
	p.obj = nil // idempotent: a second Release is a no-op
	sh.mu.Lock()
	obj.pins--
	if obj.pins == 0 && sh.mem[obj.Key] == obj {
		d := int64(len(obj.Data))
		sh.pinnedBytes.Add(-d)
		p.s.pinnedBytes.Add(-d)
		sh.gen++ // the object is evictable again: invalidate snapshots
	}
	sh.mu.Unlock()
}

// GetPinned returns the object for key together with a pin that keeps
// it memory-resident until released. Disk-tier objects are promoted
// first (singleflighted, like Get). A nil pin alongside a non-nil
// object means the promoted copy was evicted before it could be pinned —
// the bytes are still valid (the caller holds the only live reference)
// but not cache-resident, so zero-copy servers should count it as a
// copy fallback.
func (s *Store) GetPinned(key string) (*Object, *Pin, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if obj, ok := sh.mem[key]; ok {
		p := s.pinLocked(sh, obj)
		sh.mu.Unlock()
		s.hits.Add(1)
		return obj, p, nil
	}
	sh.mu.Unlock()
	obj, err := s.Get(key) // promote through the singleflight path
	if err != nil {
		return nil, nil, err
	}
	sh.mu.Lock()
	if cur, ok := sh.mem[key]; ok && cur == obj {
		p := s.pinLocked(sh, cur)
		sh.mu.Unlock()
		return cur, p, nil
	}
	sh.mu.Unlock()
	return obj, nil, nil
}

// readFile is os.ReadFile, indirected so tests can gate promotion reads.
var readFile = os.ReadFile

// Contains reports which tier (if any) holds the key.
func (s *Store) Contains(key string) (inMem, onDisk bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, inMem = sh.mem[key]
	_, onDisk = sh.disk[key]
	return
}

// MarkUsed flags an object as consumed (eligible for first-priority
// eviction when ephemeral).
func (s *Store) MarkUsed(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if obj, ok := sh.mem[key]; ok && !obj.Used {
		obj.Used = true
		sh.gen++ // the flag changes the object's eviction priority
	}
}

// Delete removes the object from both tiers.
func (s *Store) Delete(key string) error {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if obj, ok := sh.mem[key]; ok {
		d := int64(len(obj.Data))
		delete(sh.mem, key)
		sh.memBytes.Add(-d)
		sh.gen++
		s.memBytes.Add(-d)
		if obj.pins > 0 {
			sh.pinnedBytes.Add(-d)
			s.pinnedBytes.Add(-d)
		}
	}
	var rmErr error
	if ent, ok := sh.disk[key]; ok {
		s.diskBytes.Add(-ent.size)
		delete(sh.disk, key)
		if err := os.Remove(ent.path); err != nil && !os.IsNotExist(err) {
			rmErr = fmt.Errorf("storage: %w", err)
		}
	}
	sh.mu.Unlock()
	s.noteWatermark(s.memBytes.Load())
	return rmErr
}

// Persist writes an object to the disk tier (fault tolerance for
// unpruned objects) without removing it from memory.
func (s *Store) Persist(key string) error {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj, ok := sh.mem[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return s.writeDiskLocked(sh, obj)
}

// writeDiskLocked persists obj into the disk tier. The caller holds
// sh.mu (obj's shard). The disk budget is reserved with a single atomic
// add before any I/O and rolled back on failure, so two concurrent
// spills can never both pass the check and overshoot the budget. A
// replace is conservatively double-counted (old + new) until the old
// entry is released after the write lands — a spill that only fits by
// reusing its predecessor's bytes is rejected, exactly as the unsharded
// store rejected it.
func (s *Store) writeDiskLocked(sh *shard, obj *Object) error {
	if s.dir == "" {
		return fmt.Errorf("storage: no disk tier configured")
	}
	// Popularity tiering, storage half: cold (zero-heat) objects go to
	// disk flate-compressed when that actually shrinks them — already-
	// compressed payloads are kept verbatim — while hot objects keep
	// their decode-cheap bytes. The compressed form carries an ".objz"
	// suffix so recovery and promotion know to inflate.
	data := obj.Data
	path := s.diskPath(obj.Key)
	compressed := false
	if s.coldCompress && obj.Heat == 0 {
		if z, ok := deflateSmaller(obj.Data); ok {
			data, path, compressed = z, path+"z", true
		}
	}
	size := int64(len(data))
	if newTotal := s.diskBytes.Add(size); s.diskBudget > 0 && newTotal > s.diskBudget {
		s.diskBytes.Add(-size)
		return fmt.Errorf("%w (%d + %d > %d)", ErrDiskBudget, newTotal-size, size, s.diskBudget)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.diskBytes.Add(-size)
		return fmt.Errorf("storage: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.diskBytes.Add(-size)
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		s.diskBytes.Add(-size)
		return fmt.Errorf("storage: %w", err)
	}
	if old, ok := sh.disk[obj.Key]; ok {
		s.diskBytes.Add(-old.size)
		if old.path != path {
			os.Remove(old.path) // suffix changed: drop the stale twin
		}
	}
	sh.disk[obj.Key] = diskEntry{path: path, size: size}
	s.spills.Add(1)
	if compressed {
		s.compressedSpills.Add(1)
		s.spillSaved.Add(int64(len(obj.Data)) - size)
	}
	return nil
}

// deflateSmaller compresses data with flate (BestSpeed) and reports
// whether the result is actually smaller; callers keep the original
// bytes otherwise.
func deflateSmaller(data []byte) ([]byte, bool) {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, false
	}
	if _, err := zw.Write(data); err != nil {
		return nil, false
	}
	if err := zw.Close(); err != nil {
		return nil, false
	}
	if buf.Len() >= len(data) {
		return nil, false
	}
	return buf.Bytes(), true
}

// inflateAll reverses deflateSmaller.
func inflateAll(data []byte) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(data))
	out, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// evictBefore is the §6 eviction priority extended with popularity
// tiering: used-and-unneeded ephemeral objects first, colder (lower
// Heat) objects before hotter ones within a class, then longest-deadline
// objects, keys breaking ties. With all heats zero the order is exactly
// the legacy heat-blind policy.
func evictBefore(a, b *Object) bool {
	aFirst := a.Used && a.Ephemeral
	bFirst := b.Used && b.Ephemeral
	if aFirst != bFirst {
		return aFirst
	}
	if a.Heat != b.Heat {
		return a.Heat < b.Heat // cold evicts first
	}
	if a.Deadline != b.Deadline {
		return a.Deadline > b.Deadline // longest deadline first
	}
	return a.Key < b.Key
}

// victim is one eviction candidate: the priority-relevant fields of an
// object, snapshotted so passes can sort and merge without shard locks.
type victim struct {
	key      string
	size     int64
	deadline int64
	heat     int64
	ueph     bool // Used && Ephemeral: the first-priority class
}

// victimBefore is evictBefore over snapshots.
func victimBefore(a, b victim) bool {
	if a.ueph != b.ueph {
		return a.ueph
	}
	if a.heat != b.heat {
		return a.heat < b.heat
	}
	if a.deadline != b.deadline {
		return a.deadline > b.deadline
	}
	return a.key < b.key
}

// refreshCand ensures shard i's candidate snapshot is current: a brief
// lock and a gen comparison when nothing changed, a rescan and one
// priority sort of the shard's own population (N× smaller than a global
// sort) when it did. The sort runs outside the shard lock; evictVictim
// re-validates gen before acting, so a snapshot gone stale mid-sort is
// detected rather than trusted. Caller holds evictMu.
func (s *Store) refreshCand(i int) {
	sh := &s.shards[i]
	sh.mu.Lock()
	if s.candOK[i] && s.candGen[i] == sh.gen {
		sh.mu.Unlock()
		return
	}
	vs := s.cand[i][:0]
	for _, o := range sh.mem {
		if o.pins > 0 {
			// Pinned objects are mid-flight on zero-copy responses (or
			// otherwise leased): never candidates. A pin acquired after
			// this snapshot bumps sh.gen, so evictVictim re-validates
			// before acting on a stale listing.
			continue
		}
		vs = append(vs, victim{key: o.Key, size: int64(len(o.Data)), deadline: o.Deadline, heat: o.Heat, ueph: o.Used && o.Ephemeral})
	}
	gen := sh.gen
	sh.mu.Unlock()
	sort.Slice(vs, func(a, b int) bool { return victimBefore(vs[a], vs[b]) })
	s.cand[i], s.candGen[i], s.candPos[i], s.candOK[i] = vs, gen, 0, true
}

// nextVictim returns shard i's best remaining candidate, if any. Caller
// holds evictMu.
func (s *Store) nextVictim(i int) (victim, bool) {
	s.refreshCand(i)
	if s.candPos[i] >= len(s.cand[i]) {
		return victim{}, false
	}
	return s.cand[i][s.candPos[i]], true
}

// evictVictim evicts shard i's current head candidate, spilling
// non-ephemeral objects through to the disk tier first (the spill is
// atomic — reserve → write → account — with no unlock/relock). Returns
// false without evicting when a concurrent mutation invalidated the
// snapshot; the caller's next nextVictim rebuilds it. Caller holds
// evictMu.
func (s *Store) evictVictim(i int) (bool, error) {
	v := s.cand[i][s.candPos[i]]
	sh := &s.shards[i]
	sh.mu.Lock()
	if sh.gen != s.candGen[i] {
		sh.mu.Unlock()
		s.candOK[i] = false
		return false, nil
	}
	o := sh.mem[v.key] // gen matched, so the snapshot is live
	if !o.Ephemeral && s.dir != "" {
		if _, onDisk := sh.disk[o.Key]; !onDisk {
			if err := s.writeDiskLocked(sh, o); err != nil && s.memBytes.Load() > s.memBudget {
				sh.mu.Unlock()
				return false, fmt.Errorf("storage: cannot spill %s and memory over budget: %w", o.Key, err)
			}
		}
	}
	d := int64(len(o.Data))
	delete(sh.mem, v.key)
	sh.memBytes.Add(-d)
	s.memBytes.Add(-d)
	s.evictions.Add(1)
	sh.gen++
	s.candGen[i] = sh.gen // our own mutation keeps the snapshot valid
	s.candPos[i]++
	sh.mu.Unlock()
	s.passEvicted[i]++
	s.passFreed[i] += d
	return true, nil
}

// maybeEvict enforces the 75% policy across shards. When the atomic
// total crosses the watermark, one caller at a time (evictMu) runs a
// two-round pass over per-shard candidate snapshots:
//
//  1. Reclaim round: the used-and-unneeded ephemeral class — objects the
//     paper's policy always evicts first — is drained with per-shard byte
//     quotas proportional to each shard's share of that class, fullest
//     first.
//  2. Fairness sweep: if the total is still above the watermark, victims
//     are taken one at a time from whichever shard holds the globally
//     best candidate (a cross-shard merge in evictBefore order). The
//     sweep both keeps a cold shard from stranding the budget and keeps
//     a shard that happens to hold a large, urgent object (a demand
//     batch just materialized) from being over-billed: urgent objects go
//     last, exactly as in the unsharded store.
//
// At Shards: 1 the two rounds compose to the exact global eviction
// order. Callers below the watermark pay one atomic load.
func (s *Store) maybeEvict() error {
	thr := s.watermark()
	if s.memBytes.Load() <= thr {
		return nil
	}
	// The storm hook must run outside evictMu (it may dump traces or take
	// foreign locks); deferred before the lock so it fires after Unlock.
	var storm string
	defer func() {
		if storm != "" && s.onStorm != nil {
			s.onStorm(storm)
		}
	}()
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	total := s.memBytes.Load()
	need := total - thr
	if need <= 0 {
		return nil
	}
	passStart := s.tr.Now()
	for i := range s.shards {
		s.passEvicted[i], s.passFreed[i] = 0, 0
	}

	// Round 1: proportional reclaim of the used-ephemeral class.
	type shardUse struct {
		idx int
		use int64
	}
	uses := make([]shardUse, 0, len(s.shards))
	var totalUeph int64
	for i := range s.shards {
		s.refreshCand(i)
		var u int64
		for _, v := range s.cand[i][s.candPos[i]:] {
			if !v.ueph {
				break // candidates are sorted: the class is a prefix
			}
			u += v.size
		}
		if u > 0 {
			uses = append(uses, shardUse{i, u})
			totalUeph += u
		}
	}
	sort.Slice(uses, func(i, j int) bool {
		if uses[i].use != uses[j].use {
			return uses[i].use > uses[j].use
		}
		return uses[i].idx < uses[j].idx
	})
	for _, su := range uses {
		if s.memBytes.Load() <= thr {
			break
		}
		quota := need*su.use/totalUeph + 1 // round up so small shares still drain
		var freed int64
		for freed < quota && s.memBytes.Load() > thr {
			v, ok := s.nextVictim(su.idx)
			if !ok || !v.ueph {
				break
			}
			evicted, err := s.evictVictim(su.idx)
			if err != nil {
				return err
			}
			if evicted {
				freed += v.size
			}
		}
	}

	// Round 2: the fairness sweep, a cross-shard priority merge. Leftover
	// used-ephemeral candidates (quota rounding) sort first and drain
	// before any deadline-ordered object is touched.
	for s.memBytes.Load() > thr {
		best, bestV := -1, victim{}
		for i := range s.shards {
			if v, ok := s.nextVictim(i); ok && (best < 0 || victimBefore(v, bestV)) {
				best, bestV = i, v
			}
		}
		if best < 0 {
			break // everything evictable is gone
		}
		if _, err := s.evictVictim(best); err != nil {
			return err
		}
	}

	if s.tr.Enabled() {
		for i := range s.shards {
			if s.passEvicted[i] > 0 {
				s.tr.Span("storage", "evict_pass", 0, passStart, fmt.Sprintf(
					"shard %d: evicted %d objects, freed %d bytes", i, s.passEvicted[i], s.passFreed[i]))
			}
		}
	}
	var passTotal int64
	for i := range s.shards {
		passTotal += s.passEvicted[i]
	}
	if passTotal > 0 {
		storm = s.noteEvictPassLocked()
	}
	s.noteWatermark(s.memBytes.Load())
	return nil
}

// noteEvictPassLocked records one evicting pass and returns a non-empty
// storm reason when the pass completed a storm (stormPasses evicting
// passes inside stormWindow, outside the cooldown). Caller holds
// evictMu; the returned reason is acted on after the lock is dropped.
func (s *Store) noteEvictPassLocked() string {
	now := time.Now()
	oldest := s.stormTimes[s.stormIdx] // about to be overwritten: the Nth-last pass
	s.stormTimes[s.stormIdx] = now
	s.stormIdx = (s.stormIdx + 1) % stormPasses
	if oldest.IsZero() || now.Sub(oldest) > stormWindow {
		return ""
	}
	if !s.stormLast.IsZero() && now.Sub(s.stormLast) < stormCooldown {
		return ""
	}
	s.stormLast = now
	s.storms.Add(1)
	reason := fmt.Sprintf("storage eviction storm: %d evicting passes in %s", stormPasses, now.Sub(oldest))
	s.tr.Instant("storage", "evict_storm", 0, reason)
	return reason
}

// Keys returns all keys with the given prefix, across both tiers, sorted.
func (s *Store) Keys(prefix string) []string {
	set := map[string]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.mem {
			if strings.HasPrefix(k, prefix) {
				set[k] = true
			}
		}
		for k := range sh.disk {
			if strings.HasPrefix(k, prefix) {
				set[k] = true
			}
		}
		sh.mu.Unlock()
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the store counters. Byte totals and event
// counters are atomic loads; object counts take each shard lock briefly.
func (s *Store) Stats() Stats {
	st := Stats{
		MemBytes:         s.memBytes.Load(),
		DiskBytes:        s.diskBytes.Load(),
		PinnedBytes:      s.pinnedBytes.Load(),
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Evictions:        s.evictions.Load(),
		Spills:           s.spills.Load(),
		Promotions:       s.promotions.Load(),
		EvictStorms:      s.storms.Load(),
		CompressedSpills: s.compressedSpills.Load(),
		SpillBytesSaved:  s.spillSaved.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.MemObjects += len(sh.mem)
		st.DiskObjects += len(sh.disk)
		sh.mu.Unlock()
	}
	return st
}

// MemBytes returns current memory-tier usage: one atomic load.
func (s *Store) MemBytes() int64 {
	return s.memBytes.Load()
}

// PinnedBytes returns the memory-tier bytes currently held by Pin
// leases (ineligible for eviction): one atomic load.
func (s *Store) PinnedBytes() int64 {
	return s.pinnedBytes.Load()
}

// MemPressure returns memBytes/memBudget, the signal the scheduler uses
// to switch to SJF above 80%. It is a single atomic load — safe to
// sample from the scheduler's dequeue path at any frequency without
// touching a store lock.
func (s *Store) MemPressure() float64 {
	return float64(s.memBytes.Load()) / float64(s.memBudget)
}
