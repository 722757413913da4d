// Package storage implements SAND's training-object store (§6 of the
// paper): a two-tier cache (memory + disk) with exact byte accounting, a
// 75%-threshold eviction policy (used-and-unneeded objects first, then
// longest-deadline objects), lossless compression for persisted frames,
// and crash recovery by scanning previously persisted objects.
//
// One mutex guards both tiers' maps and every eviction pass. Byte
// accounting is atomic — MemBytes and MemPressure (sampled by the
// scheduler at every dequeue) are single atomic loads, never lock
// acquisitions. An eviction pass sorts the unpinned objects once in §6
// priority order and evicts from the head until the store is back under
// the watermark. Persist writes a spill file's bytes outside the lock and
// only renames it into place under it.
//
// A promotion from disk reads the spill file outside the lock and
// re-inserts it with Put; concurrent readers of one spilled key each read
// the file, and the last copy re-inserted stays resident.
//
// Objects can be leased by reference: GetPinned returns the payload
// together with a ref-counted Pin that keeps it memory-resident —
// eviction passes skip pinned objects — so the network dataplane can
// write cached bytes straight to a socket (writev) without copying them
// out of the store first. See DESIGN.md ("Zero-copy dataplane").
//
// With an observability registry attached (Options.Obs), the store
// exposes occupancy gauges (including pinned bytes) and hit/miss/eviction
// counters, and traces watermark crossings and eviction passes
// (internal/obs).
package storage

import (
	"bytes"
	"cmp"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

	// pins is the number of outstanding Pin leases on this object while
	// it is memory-resident. A pinned object is skipped by eviction
	// passes (its bytes may be mid-flight on a zero-copy response), so
	// Data can be handed to the network tier by reference. Guarded by
	// the store's mutex.
	pins int32
}

// ErrNotFound is returned when a key is absent from the store.
var ErrNotFound = errors.New("storage: object not found")

// ErrTooLarge is wrapped by a Put of an object larger than the whole
// memory budget: no eviction can make room for it.
var ErrTooLarge = errors.New("storage: object exceeds memory budget")

// EvictionThreshold is the fill fraction beyond which the store evicts
// (the paper uses 75% of the designated budget).
const EvictionThreshold = 0.75

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
	// memory. Concurrent readers of one spilled key each read the file,
	// and each read counts.
	Promotions int64
	// SpillBytesSaved is the bytes that flate compression shaved off
	// the spills that landed on disk compressed.
	SpillBytesSaved int64
}

// Store is the two-tier object store. All methods are safe for
// concurrent use.
type Store struct {
	memBudget    int64
	dir          string // disk tier directory; "" disables the disk tier
	coldCompress bool

	// mu guards both tiers' maps, the objects' Used flags and pin counts,
	// and eviction passes.
	mu   sync.Mutex
	mem  map[string]*Object
	disk map[string]diskEntry

	// Byte accounting: atomic adds on mutation (under mu), single atomic
	// loads on the scheduler-sampled read paths (MemBytes, MemPressure).
	// diskBytes is also counted outside mu by writeTemp.
	memBytes    atomic.Int64
	diskBytes   atomic.Int64
	pinnedBytes atomic.Int64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	spills     atomic.Int64
	promotions atomic.Int64

	// Bytes that compressed spills saved.
	spillSaved atomic.Int64

	tr    *obs.Tracer
	above bool // watermark crossing state, maintained tracer-on or -off; guarded by mu
}

type diskEntry struct {
	path string
	size int64
}

// Options configures a store.
type Options struct {
	// MemBudget caps the memory tier in bytes.
	MemBudget int64
	// Dir is the disk tier directory; empty disables persistence.
	Dir string
	// Obs receives store gauges, counters and trace events. Nil means
	// no registration (tracing calls are nil-safe no-ops).
	Obs *obs.Registry
	// ColdCompress writes every spill flate-compressed when that shrinks
	// it. Off, every spill is written verbatim.
	ColdCompress bool
}

// Open creates a store, recovering any objects already persisted in
// Options.Dir (the crash-recovery path of §5.5: step 2, scanning disk for
// previously persisted objects).
func Open(opts Options) (*Store, error) {
	if opts.MemBudget <= 0 {
		return nil, fmt.Errorf("storage: memory budget must be positive")
	}
	s := &Store{
		memBudget:    opts.MemBudget,
		dir:          opts.Dir,
		coldCompress: opts.ColdCompress,
		mem:          map[string]*Object{},
		disk:         map[string]diskEntry{},
		tr:           opts.Obs.Trace(),
	}
	if r := opts.Obs; r != nil {
		r.Gauge("storage.mem_bytes", func() float64 { return float64(s.MemBytes()) })
		r.Gauge("storage.pinned_bytes", func() float64 { return float64(s.PinnedBytes()) })
		r.SnapshotFunc("storage", func() map[string]int64 {
			st := s.Stats()
			return map[string]int64{
				"hits":         st.Hits,
				"misses":       st.Misses,
				"evictions":    st.Evictions,
				"spills":       st.Spills,
				"promotions":   st.Promotions,
				"disk_objects": int64(st.DiskObjects),
				"disk_bytes":   st.DiskBytes,
			}
		})
		r.SnapshotFunc("storage.tier", func() map[string]int64 {
			return map[string]int64{"spill_bytes_saved": s.spillSaved.Load()}
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
		s.disk[key] = diskEntry{path: path, size: info.Size()}
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

// noteWatermarkLocked maintains the above-75% crossing state after every
// byte movement — tracer enabled or not, so enabling tracing mid-run
// neither misses nor duplicates the next crossing event. Caller holds mu.
func (s *Store) noteWatermarkLocked() {
	above := s.memBytes.Load() > s.watermark()
	if s.above == above {
		return
	}
	s.above = above
	if above {
		s.tr.Instant("storage", "watermark", 0, "above 75%")
	} else {
		s.tr.Instant("storage", "watermark", 0, "below 75%")
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
		return fmt.Errorf("%w %d: %s is %d bytes", ErrTooLarge, s.memBudget, obj.Key, size)
	}
	s.mu.Lock()
	if old, ok := s.mem[obj.Key]; ok {
		// A displaced pinned object leaves residency: settle its pinned
		// bytes now. Pin holders keep the old bytes alive and immutable
		// through their own references.
		s.dropLocked(old)
	}
	s.mem[obj.Key] = obj
	s.memBytes.Add(size)
	s.noteWatermarkLocked()
	err := s.evictLocked()
	s.mu.Unlock()
	return err
}

// dropLocked removes obj's bytes from the memory-tier accounting (and
// from the pinned bytes, if it is pinned). The caller removes or replaces
// its map entry and holds mu.
func (s *Store) dropLocked(obj *Object) {
	d := int64(len(obj.Data))
	s.memBytes.Add(-d)
	if obj.pins > 0 {
		s.pinnedBytes.Add(-d)
	}
}

// Get returns the object for key, promoting a disk-tier object into
// memory. The returned object is shared; callers must not mutate Data.
// The disk read runs outside the lock: concurrent Gets of one spilled key
// each read the file and re-insert their copy, and the last copy
// re-inserted stays resident.
func (s *Store) Get(key string) (*Object, error) {
	s.mu.Lock()
	if obj, ok := s.mem[key]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return obj, nil
	}
	ent, onDisk := s.disk[key]
	s.mu.Unlock()
	if !onDisk {
		s.misses.Add(1)
		// Bare sentinel: misses are the common case on the probe-heavy
		// materialization path and must not allocate a formatted error.
		return nil, ErrNotFound
	}
	data, err := s.readSpill(ent.path)
	if errors.Is(err, os.ErrNotExist) {
		// The entry was deleted between the lookup and the read; report
		// a plain miss, as if the Get had lost the race to the Delete.
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("storage: disk tier read %s: %w", key, err)
	}
	obj := &Object{Key: key, Data: data}
	s.promotions.Add(1)
	// A refused Put is not fatal: the reader is served from the read copy.
	_ = s.Put(obj)
	s.hits.Add(1)
	return obj, nil
}

// readSpill reads a disk-tier file back into an object payload, inflating
// a compressed (.objz) spill. Files are outside input — a crash or
// another writer may have left anything in the directory — so a payload
// over the memory budget fails the read, and inflation stops one byte
// past the budget instead of allocating whatever the stream claims.
func (s *Store) readSpill(path string) ([]byte, error) {
	data, err := readFile(path)
	if err == nil && strings.HasSuffix(path, ".objz") {
		data, err = inflateAll(data, s.memBudget)
	}
	if err == nil && int64(len(data)) > s.memBudget {
		err = fmt.Errorf("payload exceeds memory budget %d", s.memBudget)
	}
	return data, err
}

// Pin is a reference-counted lease on a memory-resident object: while
// any pin is outstanding, eviction passes skip the object, so its Data
// can be handed to the network tier by reference (a writev segment)
// without risking the bytes leaving the cache mid-write. Pins nest: the
// object stays ineligible until every pin is released. Release is
// idempotent and safe to call on a nil pin.
type Pin struct {
	s   *Store
	obj *Object
}

// pinLocked acquires a pin on a resident object. Caller holds mu.
func (s *Store) pinLocked(obj *Object) *Pin {
	if obj.pins == 0 {
		s.pinnedBytes.Add(int64(len(obj.Data)))
	}
	obj.pins++
	return &Pin{s: s, obj: obj}
}

// Release drops the lease. On the last release of a still-resident
// object the bytes become evictable again. If the object was deleted or
// replaced while pinned, its pinned-byte accounting was already settled
// at that point and Release only drops the reference.
func (p *Pin) Release() {
	if p == nil || p.obj == nil {
		return
	}
	s, obj := p.s, p.obj
	p.obj = nil // idempotent: a second Release is a no-op
	s.mu.Lock()
	obj.pins--
	if obj.pins == 0 && s.mem[obj.Key] == obj {
		s.pinnedBytes.Add(-int64(len(obj.Data)))
	}
	s.mu.Unlock()
}

// GetPinned returns the object for key together with a pin that keeps
// it memory-resident until released. Disk-tier objects are promoted
// first, as by Get. A nil pin alongside a non-nil object means the
// promoted copy was evicted or displaced before it could be pinned —
// the bytes are still valid (the caller holds the only live reference)
// but not cache-resident, so zero-copy servers should count it as a
// copy fallback.
func (s *Store) GetPinned(key string) (*Object, *Pin, error) {
	s.mu.Lock()
	if obj, ok := s.mem[key]; ok {
		p := s.pinLocked(obj)
		s.mu.Unlock()
		s.hits.Add(1)
		return obj, p, nil
	}
	s.mu.Unlock()
	obj, err := s.Get(key)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem[key] == obj {
		return obj, s.pinLocked(obj), nil
	}
	return obj, nil, nil
}

// readFile is os.ReadFile, indirected so tests can gate promotion reads.
var readFile = os.ReadFile

// Contains reports which tier (if any) holds the key.
func (s *Store) Contains(key string) (inMem, onDisk bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, inMem = s.mem[key]
	_, onDisk = s.disk[key]
	return
}

// MarkUsed flags an object as consumed (eligible for first-priority
// eviction when ephemeral).
func (s *Store) MarkUsed(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.mem[key]; ok {
		obj.Used = true
	}
}

// Delete removes the object from both tiers.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.mem[key]; ok {
		delete(s.mem, key)
		s.dropLocked(obj)
		s.noteWatermarkLocked()
	}
	if ent, ok := s.disk[key]; ok {
		s.diskBytes.Add(-ent.size)
		delete(s.disk, key)
		if err := os.Remove(ent.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: %w", err)
		}
	}
	return nil
}

// Persist writes an object to the disk tier (fault tolerance for
// unpruned objects) without removing it from memory. The file is written
// outside the store lock; if the key is deleted, replaced or evicted
// meanwhile, the write is discarded and Persist reports ErrNotFound.
func (s *Store) Persist(key string) error {
	s.mu.Lock()
	obj, ok := s.mem[key]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	sp, err := s.writeTemp(obj)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(obj, sp)
}

// spillFile is a spill written to a temporary file but not yet
// registered in the disk tier. Its size is already counted in diskBytes.
type spillFile struct {
	tmp, path string // the temporary file, and the key's path it is renamed to
	size      int64
	saved     int64 // bytes compression shaved off; > 0 exactly when compressed
}

// writeTemp writes obj's on-disk form to a fresh temporary file in the
// key's directory. It needs no lock: Key and Data are immutable. Its size
// is added to diskBytes before any I/O and rolled back on failure; a
// replace counts old + new until commitLocked releases the old entry.
func (s *Store) writeTemp(obj *Object) (spillFile, error) {
	if s.dir == "" {
		return spillFile{}, fmt.Errorf("storage: no disk tier configured")
	}
	// Objects go to disk flate-compressed when that actually shrinks them;
	// already-compressed payloads are kept verbatim. The compressed form
	// carries an ".objz" suffix so recovery and promotion know to inflate.
	data := obj.Data
	sp := spillFile{path: s.diskPath(obj.Key)}
	if s.coldCompress {
		if z, ok := deflateSmaller(obj.Data); ok {
			data, sp.path, sp.saved = z, sp.path+"z", int64(len(obj.Data)-len(z))
		}
	}
	sp.size = int64(len(data))
	s.diskBytes.Add(sp.size)
	tmp, err := writeTempFile(sp.path, data)
	if err != nil {
		s.diskBytes.Add(-sp.size)
		return spillFile{}, fmt.Errorf("storage: %w", err)
	}
	sp.tmp = tmp
	return sp, nil
}

// writeTempFile writes data to a fresh file beside path and returns its
// name. The name ends in ".tmp", which recovery skips.
func writeTempFile(path string, data []byte) (string, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644) // the mode spill files have always had
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// discard removes an unregistered spill's temporary file and releases its
// disk reservation.
func (s *Store) discard(sp spillFile) {
	os.Remove(sp.tmp)
	s.diskBytes.Add(-sp.size)
}

// commitLocked registers a spill of obj written by writeTemp, if obj is
// still the key's resident object (an eviction pass commits before it
// removes its victim): the temporary file is renamed onto the key's path
// and any older entry is settled. Otherwise the key was deleted, replaced
// or evicted since the write, and the spill is discarded. The rename
// happens under mu, so a stale writer can never overwrite or orphan a
// file another writer registered. Caller holds mu.
func (s *Store) commitLocked(obj *Object, sp spillFile) error {
	if s.mem[obj.Key] != obj {
		s.discard(sp)
		return fmt.Errorf("%w: %s", ErrNotFound, obj.Key)
	}
	if err := os.Rename(sp.tmp, sp.path); err != nil {
		s.discard(sp)
		return fmt.Errorf("storage: %w", err)
	}
	if old, ok := s.disk[obj.Key]; ok {
		s.diskBytes.Add(-old.size)
		if old.path != sp.path {
			os.Remove(old.path) // suffix changed: drop the stale twin
		}
	}
	s.disk[obj.Key] = diskEntry{path: sp.path, size: sp.size}
	s.spills.Add(1)
	s.spillSaved.Add(sp.saved)
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

// inflateAll reverses deflateSmaller, failing once the output passes
// limit bytes.
func inflateAll(data []byte, limit int64) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(data))
	out, err := io.ReadAll(io.LimitReader(zr, limit+1))
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err == nil && int64(len(out)) > limit {
		err = fmt.Errorf("inflates past %d bytes", limit)
	}
	return out, err
}

// victimOrder is the §6 eviction priority as a slices.SortFunc
// comparison: used-and-unneeded ephemeral objects first, then
// longest-deadline objects, keys breaking ties.
func victimOrder(a, b *Object) int {
	if ua, ub := a.Used && a.Ephemeral, b.Used && b.Ephemeral; ua != ub {
		if ua {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(b.Deadline, a.Deadline); c != 0 {
		return c // longest deadline first
	}
	return strings.Compare(a.Key, b.Key)
}

// evictLocked enforces the 75% policy. Over the watermark, it sorts the
// unpinned objects once by victimOrder and evicts from the head —
// spilling non-ephemeral objects to the disk tier first — until the store
// is back under the watermark. Pinned objects are mid-flight on zero-copy
// responses (or otherwise leased) and are never victims. Caller holds mu.
func (s *Store) evictLocked() error {
	thr := s.watermark()
	if s.memBytes.Load() <= thr {
		return nil
	}
	passStart := s.tr.Now()
	vs := make([]*Object, 0, len(s.mem))
	for _, o := range s.mem {
		if o.pins == 0 {
			vs = append(vs, o)
		}
	}
	slices.SortFunc(vs, victimOrder)
	var evicted, freed int64
	for _, o := range vs {
		if s.memBytes.Load() <= thr {
			break
		}
		if !o.Ephemeral && s.dir != "" {
			if _, onDisk := s.disk[o.Key]; !onDisk {
				sp, err := s.writeTemp(o)
				if err == nil {
					err = s.commitLocked(o, sp)
				}
				if err != nil && s.memBytes.Load() > s.memBudget {
					return fmt.Errorf("storage: cannot spill %s and memory over budget: %w", o.Key, err)
				}
			}
		}
		delete(s.mem, o.Key)
		s.dropLocked(o)
		s.evictions.Add(1)
		evicted++
		freed += int64(len(o.Data))
	}

	if evicted > 0 && s.tr.Enabled() {
		s.tr.Span("storage", "evict_pass", 0, passStart,
			fmt.Sprintf("evicted %d objects, freed %d bytes", evicted, freed))
	}
	s.noteWatermarkLocked()
	return nil
}

// Keys returns all keys with the given prefix, across both tiers, sorted.
func (s *Store) Keys(prefix string) []string {
	set := map[string]bool{}
	s.mu.Lock()
	for k := range s.mem {
		if strings.HasPrefix(k, prefix) {
			set[k] = true
		}
	}
	for k := range s.disk {
		if strings.HasPrefix(k, prefix) {
			set[k] = true
		}
	}
	s.mu.Unlock()
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the store counters. Byte totals and event
// counters are atomic loads; object counts take the lock briefly.
func (s *Store) Stats() Stats {
	st := Stats{
		MemBytes:        s.memBytes.Load(),
		DiskBytes:       s.diskBytes.Load(),
		PinnedBytes:     s.pinnedBytes.Load(),
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Evictions:       s.evictions.Load(),
		Spills:          s.spills.Load(),
		Promotions:      s.promotions.Load(),
		SpillBytesSaved: s.spillSaved.Load(),
	}
	s.mu.Lock()
	st.MemObjects = len(s.mem)
	st.DiskObjects = len(s.disk)
	s.mu.Unlock()
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
