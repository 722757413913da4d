package core

import (
	"fmt"
	"sync"
	"testing"

	"sand/internal/codec"
	"sand/internal/dataset"
	"sand/internal/frame"
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

	if n := c.misses.Load(); n != 1 {
		t.Fatalf("misses = %d, want exactly 1 build for one GOP", n)
	}
	if n := c.hits.Load(); n < goroutines-1 {
		t.Fatalf("hits = %d, want >= %d", n, goroutines-1)
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
	if n := c.misses.Load(); n != 3 {
		t.Fatalf("misses = %d, want 3 (one build per GOP)", n)
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

// TestGOPCacheFailedExtendChargesDecodedFrames corrupts a payload in the
// middle of a GOP and extends past it: the frames decoded before the
// failure stay cached, so the entry, the cache budget and the decode
// counter must all account for them.
func TestGOPCacheFailedExtendChargesDecodedFrames(t *testing.T) {
	clean, ent := gopTestEntry(t, "v", 20, 20), gopTestEntry(t, "v", 20, 20) // one GOP
	data := append([]byte(nil), ent.Video.Data...)
	at := len(data) * 6 / 10
	for i := at; i < at+40; i++ {
		data[i] ^= 0xff
	}
	v, err := codec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	ent.Video = v
	c := newGOPCache(1<<30, nil)
	e, err := c.acquire(ent, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(e)
	if _, err := c.frameFrom(ent, e, 8); err == nil {
		t.Fatal("frame 8 decoded through a corrupt payload")
	}
	const frameBytes = 32 * 24 * 3
	if len(e.frames) != 7 || e.decodedThrough != 6 {
		t.Fatalf("cached %d frames through %d, want 7 through 6 (frame 7 is the first corrupt one)", len(e.frames), e.decodedThrough)
	}
	for i, f := range e.frames {
		if !framesEqual(f, decodeRef(t, clean, i)) {
			t.Fatalf("cached frame %d differs from the reference decode", i)
		}
	}
	if e.bytes != 7*frameBytes || c.bytes.Load() != 7*frameBytes || c.framesDecoded.Load() != 7 {
		t.Fatalf("charged %d B to the entry and %d B to the cache, counted %d frames; holds %d B in 7 frames",
			e.bytes, c.bytes.Load(), c.framesDecoded.Load(), 7*frameBytes)
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
	if b := c.bytes.Load(); b > budget {
		t.Fatalf("resident bytes %d exceed budget %d after releases", b, budget)
	}
	if c.evictions.Load() == 0 {
		t.Fatalf("expected evictions after decoding 10 GOPs into a %d-byte budget", budget)
	}
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	if entries > 2 {
		t.Fatalf("entries = %d, want <= 2 under budget %d", entries, budget)
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
	if b := c.bytes.Load(); b > 15*frameBytes {
		t.Fatalf("bytes %d over budget with no pins", b)
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
	if n := c.misses.Load(); n != 1 {
		t.Fatalf("misses = %d under pressure floor, want 1 (no thrash)", n)
	}
	if n := c.evictions.Load(); n != 0 {
		t.Fatalf("evictions = %d under pressure floor, want 0", n)
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

// TestGOPCacheScanResistance pins the LRU victim order: when a new GOP
// overflows the budget, the least recently used GOP goes and the most
// recently used one survives, however often either was touched before.
func TestGOPCacheScanResistance(t *testing.T) {
	ent := gopTestEntry(t, "scan", 100, 10) // 10 GOPs of 10 frames
	frameBytes := int64(32 * 24 * 3)
	c := newGOPCache(25*frameBytes, nil) // two 10-frame GOPs fit, three do not

	touch := func(idx int) {
		t.Helper()
		if _, err := c.frameOnce(ent, idx); err != nil {
			t.Fatal(err)
		}
	}
	resident := func(start int) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.entries[gopKey{video: "scan", start: start}]
		return ok
	}
	// GOP 10 is used many times, but GOP 0 is used last.
	touch(9)
	for i := 0; i < 8; i++ {
		touch(19)
	}
	touch(9)
	touch(29) // overflows: the least recently used entry goes
	if resident(10) {
		t.Fatal("GOP 10 survived although it was the least recently used")
	}
	if !resident(0) {
		t.Fatal("GOP 0 was evicted although it was used more recently than GOP 10")
	}
	if !resident(20) {
		t.Fatal("the GOP just decoded was evicted")
	}
	if n := c.evictions.Load(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
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
	bytesBefore := c.bytes.Load()
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
	if got := c.bytes.Load() - bytesBefore; got != int64(f1.Bytes()) {
		t.Fatalf("derived bytes %d, want %d", got, f1.Bytes())
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
	bytesWithDerived := c.bytes.Load()
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
