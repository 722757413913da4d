package core

import (
	"fmt"
	"sync"
	"testing"

	"sand/internal/codec"
	"sand/internal/config"
	"sand/internal/dataset"
	"sand/internal/frame"
	"sand/internal/sched"
)

// gopTestEntry builds a small deterministic video wrapped in a dataset
// entry, matching what the materialization engine hands the cache.
func gopTestEntry(t testing.TB, name string, frames, gop int) *dataset.Entry {
	t.Helper()
	w, h, c := 32, 24, 3
	raw := make([]*frame.Frame, frames)
	for i := range raw {
		f := frame.New(w, h, c)
		for j := range f.Pix {
			f.Pix[j] = byte((i*131 + j*7) % 251)
		}
		f.Index = i
		raw[i] = f
	}
	clip, err := frame.NewClip(raw)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.Encode(clip, codec.EncodeParams{GOP: gop, FPS: 10})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	ent := &dataset.Entry{Video: v}
	ent.Spec.Name = name
	return ent
}

// decodeRef decodes frame idx the slow way for comparison.
func decodeRef(t testing.TB, ent *dataset.Entry, idx int) *frame.Frame {
	t.Helper()
	dec := codec.NewDecoder(ent.Video, nil)
	defer dec.Close()
	f, err := dec.Frame(idx)
	if err != nil {
		t.Fatalf("reference decode %d: %v", idx, err)
	}
	return f
}

func framesEqual(a, b *frame.Frame) bool {
	if a.W != b.W || a.H != b.H || a.C != b.C {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

// TestGOPCacheConcurrentSameGOP hammers one GOP from many goroutines:
// exactly one build must happen, and every caller must observe identical
// correct pixels. Run under -race this doubles as the shared-read check.
func TestGOPCacheConcurrentSameGOP(t *testing.T) {
	ent := gopTestEntry(t, "samegop", 30, 30) // one GOP
	c := newGOPCache(1<<30, nil)

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lease := c.lease()
			defer lease.release()
			for _, idx := range []int{5 + g%3, 12, 29 - g%5} {
				f, err := lease.frame(ent, idx)
				if err != nil {
					errs <- err
					return
				}
				if f.Index != idx {
					errs <- fmt.Errorf("goroutine %d: frame index %d, want %d", g, f.Index, idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 build for one GOP", st.Misses)
	}
	if st.Hits < goroutines-1 {
		t.Fatalf("hits = %d, want >= %d", st.Hits, goroutines-1)
	}
	// Pixel correctness against an independent decoder.
	for _, idx := range []int{5, 12, 29} {
		got, err := c.frameOnce(ent, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(got, decodeRef(t, ent, idx)) {
			t.Fatalf("frame %d pixels differ from reference decode", idx)
		}
	}
}

// TestGOPCacheConcurrentAdjacentGOPs exercises concurrent builds of
// different GOPs of one video plus extension races: goroutines ask for
// deepening indices within each GOP, so extends interleave with hits.
func TestGOPCacheConcurrentAdjacentGOPs(t *testing.T) {
	ent := gopTestEntry(t, "adjacent", 90, 30) // GOPs at 0, 30, 60
	c := newGOPCache(1<<30, nil)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lease := c.lease()
			defer lease.release()
			base := (g % 3) * 30
			// Ascending depth within the GOP forces extension under load.
			for _, off := range []int{3, 7 + g%4, 15, 29} {
				idx := base + off
				f, err := lease.frame(ent, idx)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d frame %d: %w", g, idx, err)
					return
				}
				if f.Index != idx {
					errs <- fmt.Errorf("goroutine %d: got index %d, want %d", g, f.Index, idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.stats()
	if st.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (one build per GOP)", st.Misses)
	}
	// Spot-check deep frames in each GOP against a reference decoder.
	for _, idx := range []int{29, 59, 89} {
		got, err := c.frameOnce(ent, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(got, decodeRef(t, ent, idx)) {
			t.Fatalf("frame %d pixels differ from reference decode", idx)
		}
	}
}

// TestGOPCacheByteBudgetEviction verifies the byte accounting: filling
// the cache past its budget evicts LRU unpinned entries and the resident
// byte count stays within the limit once nothing is pinned.
func TestGOPCacheByteBudgetEviction(t *testing.T) {
	ent := gopTestEntry(t, "evict", 100, 10) // 10 GOPs of 10 frames
	frameBytes := int64(32 * 24 * 3)
	budget := 25 * frameBytes // fits ~2.5 GOPs of 10 frames
	c := newGOPCache(budget, nil)

	for idx := 9; idx < 100; idx += 10 { // touch the deep end of every GOP
		if _, err := c.frameOnce(ent, idx); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d after releases", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions after decoding 10 GOPs into a %d-byte budget", budget)
	}
	if st.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2 under budget %d", st.Entries, budget)
	}
	// Evicted GOPs rebuild correctly on next access.
	got, err := c.frameOnce(ent, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(got, decodeRef(t, ent, 9)) {
		t.Fatalf("rebuilt frame 9 differs from reference decode")
	}
}

// TestGOPCacheEvictionVsRefHolder races eviction pressure against live
// lease holders: pinned GOPs must survive (their frames stay correct)
// while the cache sheds only unpinned entries.
func TestGOPCacheEvictionVsRefHolder(t *testing.T) {
	ent := gopTestEntry(t, "pinned", 100, 10)
	frameBytes := int64(32 * 24 * 3)
	c := newGOPCache(15*frameBytes, nil) // ~1.5 GOPs

	// Pin GOP 0 fully decoded.
	lease := c.lease()
	pinned, err := lease.frame(ent, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeRef(t, ent, 9)

	// Concurrent churn decodes every other GOP, forcing eviction scans
	// while the pin is held.
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				idx := ((g+round)%9+1)*10 + 9
				if _, err := c.frameOnce(ent, idx); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The pinned frame must still be intact and resident.
	if !framesEqual(pinned, want) {
		t.Fatalf("pinned frame corrupted during eviction churn")
	}
	again, err := lease.frame(ent, 9)
	if err != nil {
		t.Fatal(err)
	}
	if again != pinned {
		t.Fatalf("pinned GOP was evicted while leased")
	}
	lease.release()

	// After release the pinned GOP becomes evictable; budget reasserts.
	for idx := 19; idx < 100; idx += 10 {
		if _, err := c.frameOnce(ent, idx); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.stats(); st.Bytes > 15*frameBytes {
		t.Fatalf("bytes %d over budget with no pins", st.Bytes)
	}
}

// TestGOPCachePressureShrinksBudget drives the pressure signal through
// the storage and scheduler thresholds and checks the effective budget.
func TestGOPCachePressureShrinksBudget(t *testing.T) {
	var pressure float64
	var mu sync.Mutex
	c := newGOPCache(1000, func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return pressure
	})
	set := func(p float64) {
		mu.Lock()
		pressure = p
		mu.Unlock()
	}
	get := func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.effectiveBudgetLocked()
	}
	if b := get(); b != 1000 {
		t.Fatalf("no pressure: budget %d, want 1000", b)
	}
	set(0.76) // above storage.EvictionThreshold
	if b := get(); b != 500 {
		t.Fatalf("eviction pressure: budget %d, want 500", b)
	}
	set(0.85) // above sched.MemoryPressureThreshold
	if b := get(); b != 250 {
		t.Fatalf("SJF pressure: budget %d, want 250", b)
	}
}

// TestMaterializeChainParallelMatchesSerial locks in the determinism
// guarantee of intra-sample fan-out: a sample materialized with the pool
// saturated (serial path, Idle()==0) and with idle workers (fan-out
// path) yields identical bytes end-to-end through the real service.
func TestMaterializeChainParallelMatchesSerial(t *testing.T) {
	build := func(saturate bool) []byte {
		s, err := New(Options{
			Tasks:       []*config.Task{miniTask(t, "par")},
			Dataset:     miniDataset(t, 4),
			ChunkEpochs: 2,
			TotalEpochs: 2,
			MemBudget:   64 << 20,
			Workers:     4,
			Coordinate:  true,
			Seed:        5,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if saturate {
			// Park every worker on a blocked task so Idle()==0 and the
			// chain takes the serial path.
			var started sync.WaitGroup
			release := make(chan struct{})
			for i := 0; i < 4; i++ {
				started.Add(1)
				err := s.pool.Submit(&sched.Task{
					Key:  fmt.Sprintf("block%d", i),
					Kind: sched.Demand,
					Run: func() error {
						started.Done()
						<-release
						return nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			started.Wait()
			defer close(release)
			if idle := s.pool.Idle(); idle != 0 {
				t.Fatalf("pool not saturated: Idle() = %d", idle)
			}
		}
		samples, err := s.scheduleFor(iterationKey{"par", 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, sm := range samples {
			clip, err := s.materializeSampleClip(sm, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range clip.Frames {
				out = append(out, f.Pix...)
			}
		}
		return out
	}
	serial := build(true)    // saturated pool: serial path
	parallel := build(false) // idle workers: fan-out path
	if len(serial) == 0 {
		t.Fatal("no frame data materialized")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("byte %d differs between serial and parallel materialization", i)
		}
	}
}

// TestGOPCacheBudgetFloorUnderPressure pins the anti-thrash floor: when
// pressure shrinks the budget below the largest resident GOP, the
// effective budget clamps to that entry instead of rounding down and
// evict-rebuilding it on every release.
func TestGOPCacheBudgetFloorUnderPressure(t *testing.T) {
	ent := gopTestEntry(t, "floor", 10, 10) // one 10-frame GOP
	frameBytes := int64(32 * 24 * 3)
	var pressure float64
	var mu sync.Mutex
	c := newGOPCache(12*frameBytes, func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return pressure
	})

	// Decode the full GOP (10 frames) while pressure is low.
	if _, err := c.frameOnce(ent, 9); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	pressure = 0.85 // budget/4 = 3 frames < 10-frame resident entry
	mu.Unlock()

	c.mu.Lock()
	eff := c.effectiveBudgetLocked()
	c.mu.Unlock()
	if eff != 10*frameBytes {
		t.Fatalf("effective budget %d under pressure, want floor at resident entry %d", eff, 10*frameBytes)
	}
	// Repeated accesses under sustained pressure must be hits, not
	// evict-rebuild cycles.
	for i := 0; i < 5; i++ {
		if _, err := c.frameOnce(ent, 5); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d under pressure floor, want 1 (no thrash)", st.Misses)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d under pressure floor, want 0", st.Evictions)
	}
	// With nothing resident the shrink applies unfloored, so pressure
	// still gates fresh admissions (and the legacy 1000/500/250 behavior
	// in TestGOPCachePressureShrinksBudget holds).
	empty := newGOPCache(1000, func() float64 { return 0.85 })
	empty.mu.Lock()
	eff = empty.effectiveBudgetLocked()
	empty.mu.Unlock()
	if eff != 250 {
		t.Fatalf("empty-cache effective budget %d, want 250", eff)
	}
}

// TestGOPCacheScanResistance: a one-pass scan over many cold GOPs must
// not flush a GOP with proven reuse — eviction is keyed on hit counts,
// recency only breaks ties.
func TestGOPCacheScanResistance(t *testing.T) {
	ent := gopTestEntry(t, "scan", 100, 10) // 10 GOPs of 10 frames
	frameBytes := int64(32 * 24 * 3)
	c := newGOPCache(25*frameBytes, nil) // ~2.5 GOPs

	// Make GOP 0 hot: 8 accesses after the initial build.
	for i := 0; i < 9; i++ {
		if _, err := c.frameOnce(ent, 9); err != nil {
			t.Fatal(err)
		}
	}
	// Scan every other GOP once, in order — under pure LRU this flushes
	// GOP 0 (it becomes the least recent as soon as two scan GOPs land).
	for idx := 19; idx < 100; idx += 10 {
		if _, err := c.frameOnce(ent, idx); err != nil {
			t.Fatal(err)
		}
	}
	before := c.stats().Misses
	if _, err := c.frameOnce(ent, 9); err != nil {
		t.Fatal(err)
	}
	if after := c.stats().Misses; after != before {
		t.Fatalf("hot GOP was evicted by a cold scan (miss count %d -> %d)", before, after)
	}
}

// TestGOPCacheGhostReadmission: an entry with reuse history that does get
// evicted re-enters with seeded hits and bumps the readmission counter.
func TestGOPCacheGhostReadmission(t *testing.T) {
	ent := gopTestEntry(t, "ghost", 30, 10) // 3 GOPs of 10 frames
	frameBytes := int64(32 * 24 * 3)
	c := newGOPCache(12*frameBytes, nil) // ~1.2 GOPs

	// Build reuse history on GOP 0, then force it out with GOP 1 and 2.
	for i := 0; i < 4; i++ {
		if _, err := c.frameOnce(ent, 9); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.frameOnce(ent, 19); err != nil {
		t.Fatal(err)
	}
	if _, err := c.frameOnce(ent, 29); err != nil {
		t.Fatal(err)
	}
	st := c.stats()
	if st.Evictions == 0 {
		t.Fatalf("setup failed: no evictions in a 1.2-GOP budget")
	}
	// Re-touch GOP 0: must be recognized from the ghost history.
	if _, err := c.frameOnce(ent, 9); err != nil {
		t.Fatal(err)
	}
	if st := c.stats(); st.Readmissions == 0 {
		t.Fatalf("re-admitted GOP not found in ghost history (readmissions=0, ghosts=%d)", st.Ghosts)
	}
	// The readmitted entry carries seeded hits: a fresh cold GOP loses
	// the next eviction contest to it.
	c.mu.Lock()
	e := c.entries[gopKey{video: "ghost", start: 0}]
	if e == nil {
		c.mu.Unlock()
		t.Fatal("readmitted entry missing")
	}
	if e.hits < 1 {
		c.mu.Unlock()
		t.Fatalf("readmitted entry hits = %d, want >= 1", e.hits)
	}
	c.mu.Unlock()
}

// TestGOPCacheDerivedFrames covers the single-flight derived
// superset-frame cache: one leader per descriptor, waiters receive the
// published frame, abandoned flights retry, bytes are accounted and
// released with the entry.
func TestGOPCacheDerivedFrames(t *testing.T) {
	ent := gopTestEntry(t, "derived", 10, 10)
	c := newGOPCache(1<<30, nil)
	lease := c.lease()
	if _, err := lease.frame(ent, 5); err != nil {
		t.Fatal(err)
	}
	e, err := lease.entryFor(ent, 5)
	if err != nil {
		t.Fatal(err)
	}
	f0, claim := c.claimDerived(e, "k1")
	if f0 != nil || claim == nil {
		t.Fatalf("first claim: frame=%v claim=%v, want leadership", f0, claim)
	}
	// A concurrent waiter blocks until the leader publishes.
	waited := make(chan *frame.Frame, 1)
	go func() {
		f, cl := c.claimDerived(e, "k1")
		if cl != nil {
			t.Error("waiter granted leadership during an open flight")
		}
		waited <- f
	}()
	f1 := frame.New(8, 8, 3)
	c.publishDerived(e, claim, f1)
	if got := <-waited; got != f1 {
		t.Fatalf("waiter got %v, want the published frame", got)
	}
	// A late claim hits without blocking.
	if f, cl := c.claimDerived(e, "k1"); f != f1 || cl != nil {
		t.Fatalf("late claim: frame=%v claim=%v, want published hit", f, cl)
	}
	st := c.stats()
	if st.DerivedHits != 2 || st.DerivedMisses != 1 {
		t.Fatalf("derived hit/miss = %d/%d, want 2/1", st.DerivedHits, st.DerivedMisses)
	}
	if st.DerivedBytes != int64(f1.Bytes()) {
		t.Fatalf("derived bytes %d, want %d", st.DerivedBytes, f1.Bytes())
	}
	// An abandoned flight clears the slot so the next claimant leads.
	if _, cl := c.claimDerived(e, "k2"); cl == nil {
		t.Fatal("no leadership for fresh descriptor")
	} else {
		c.abandonDerived(e, "k2", cl)
	}
	if _, cl := c.claimDerived(e, "k2"); cl == nil {
		t.Fatal("abandoned flight did not allow a retry")
	} else {
		c.abandonDerived(e, "k2", cl)
	}
	bytesWithDerived := c.stats().Bytes
	lease.release()
	// Shrink the budget to force the entry (and its derived frames) out.
	c.mu.Lock()
	c.budget = 1
	c.evictLocked()
	leftover := c.bytes.Load()
	c.mu.Unlock()
	if leftover != 0 {
		t.Fatalf("bytes %d after evicting sole entry (had %d); derived frames leaked", leftover, bytesWithDerived)
	}
}

// TestGOPCacheAbandonRevokesReuseCredit: abandoning a derived flight must
// revoke the entry's reuse credit — both its live hit count and any
// ghost-history credit under its key — so a persistently failing
// superset cannot keep readmitting itself ahead of healthy GOPs on the
// strength of hits it never converted into usable frames.
func TestGOPCacheAbandonRevokesReuseCredit(t *testing.T) {
	ent := gopTestEntry(t, "abandon", 10, 10)
	c := newGOPCache(1<<30, nil)
	lease := c.lease()
	defer lease.release()
	// Build up reuse history on the GOP.
	for i := 0; i < 5; i++ {
		if _, err := c.frameOnce(ent, 5); err != nil {
			t.Fatal(err)
		}
	}
	e, err := lease.entryFor(ent, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	if e.hits == 0 {
		c.mu.Unlock()
		t.Fatal("setup failed: no hit credit accumulated")
	}
	// Plant stale ghost credit under the key, as a previous eviction
	// would have left it.
	c.ghost[e.key] = 7
	c.mu.Unlock()

	_, claim := c.claimDerived(e, "dk")
	if claim == nil {
		t.Fatal("no leadership for fresh descriptor")
	}
	c.abandonDerived(e, "dk", claim)

	c.mu.Lock()
	hits := e.hits
	_, ghosted := c.ghost[e.key]
	c.mu.Unlock()
	if hits != 0 {
		t.Fatalf("live hit credit survived abandon: hits = %d, want 0", hits)
	}
	if ghosted {
		t.Fatal("ghost credit survived abandon")
	}
	// The slot is cleared: the next claimant leads again instead of
	// observing the dead flight.
	if _, cl := c.claimDerived(e, "dk"); cl == nil {
		t.Fatal("abandoned flight did not allow a retry")
	} else {
		c.abandonDerived(e, "dk", cl)
	}
}
