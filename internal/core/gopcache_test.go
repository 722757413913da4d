package core

import (
	"fmt"
	"math/rand"
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

// requestAll requests every frame in [from, to) through one lease, so the
// GOPs it touches hold all of those frames, as a full prefix did before
// entries kept only requested frames.
func requestAll(c *gopCache, ent *dataset.Entry, from, to int) error {
	l := c.lease()
	defer l.release()
	for idx := from; idx < to; idx++ {
		if _, err := l.frame(ent, idx); err != nil {
			return err
		}
	}
	return nil
}

// heldIndices returns the frame numbers e holds, ascending.
func heldIndices(c *gopCache, e *gopEntry) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var held []int
	for i, f := range e.frames {
		if f != nil {
			held = append(held, e.key.start+i)
		}
	}
	return held
}

// heldBytes sums the pixels of every frame the cache's entries hold. The
// cache must be quiescent.
func heldBytes(c *gopCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, e := range c.entries {
		for _, f := range e.frames {
			if f != nil {
				n += int64(f.Bytes())
			}
		}
	}
	return n
}

// TestGOPCacheConcurrentSameGOP hammers one GOP from many goroutines:
// exactly one entry must be created, and every caller must observe
// identical correct pixels. Run under -race this doubles as the shared-read check.
func TestGOPCacheConcurrentSameGOP(t *testing.T) {
	ent := gopTestEntry(t, "samegop", 30, 30) // one GOP
	c := newGOPCache(1 << 30)

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
		t.Fatalf("misses = %d, want exactly 1 entry for one GOP", n)
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

// TestGOPCacheConcurrentAdjacentGOPs exercises concurrent rolls in
// different GOPs of one video plus extension races: goroutines ask for
// deepening indices within each GOP, so extensions interleave with hits.
func TestGOPCacheConcurrentAdjacentGOPs(t *testing.T) {
	ent := gopTestEntry(t, "adjacent", 90, 30) // GOPs at 0, 30, 60
	c := newGOPCache(1 << 30)

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
		t.Fatalf("misses = %d, want 3 (one entry per GOP)", n)
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

// TestGOPCacheKeepsOnlyRequestedFrames pins the keep rule: an entry
// holds the frames callers asked for and nothing else, an unkept frame
// re-rolls from the nearest held frame below it (or from the keyframe),
// and the bytes charged are exactly the bytes held.
func TestGOPCacheKeepsOnlyRequestedFrames(t *testing.T) {
	ent := gopTestEntry(t, "sparse", 20, 20) // one GOP
	c := newGOPCache(1 << 30)
	lease := c.lease()
	defer lease.release()
	const frameBytes = 32 * 24 * 3
	request := func(idx int) {
		t.Helper()
		f, err := lease.frame(ent, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !framesEqual(f, decodeRef(t, ent, idx)) || f.Index != idx {
			t.Fatalf("frame %d differs from the reference decode", idx)
		}
	}
	for _, idx := range []int{3, 7, 11} {
		request(idx)
	}
	e, err := lease.entryFor(ent, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(held []int, decoded int64) {
		t.Helper()
		if got := heldIndices(c, e); fmt.Sprint(got) != fmt.Sprint(held) {
			t.Fatalf("holds frames %v, want %v", got, held)
		}
		want := int64(len(held)) * frameBytes
		if e.bytes != want || c.bytes.Load() != want {
			t.Fatalf("charged %d B to the entry and %d B to the cache, want %d", e.bytes, c.bytes.Load(), want)
		}
		if n := c.framesDecoded.Load(); n != decoded {
			t.Fatalf("decoded %d frames, want %d", n, decoded)
		}
	}
	check([]int{3, 7, 11}, 12)
	request(5) // decodes 4 and 5 from held frame 3
	check([]int{3, 5, 7, 11}, 14)
	request(1) // nothing held below: decodes 0 and 1 from the keyframe
	check([]int{1, 3, 5, 7, 11}, 16)
	request(7) // held: no decode
	check([]int{1, 3, 5, 7, 11}, 16)
	// Held frames served as roll references: none may have been written.
	for _, idx := range heldIndices(c, e) {
		request(idx)
	}
}

// TestGOPCacheOutOfOrderRequests requests frames of three GOPs from many
// goroutines in shuffled orders, as concurrent samples, and a sample's
// later chains revisiting its GOPs, make them:
// every frame must match the reference decode, the cache must hold
// exactly the requested frames, and its charge must equal what it holds.
func TestGOPCacheOutOfOrderRequests(t *testing.T) {
	ent := gopTestEntry(t, "shuffled", 60, 20) // GOPs at 0, 20, 40
	refs := make([]*frame.Frame, 60)
	for i := range refs {
		refs[i] = decodeRef(t, ent, i)
	}
	c := newGOPCache(1 << 30)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		requested = map[int]bool{}
	)
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			idxs := rng.Perm(60)[:12]
			mu.Lock()
			for _, idx := range idxs {
				requested[idx] = true
			}
			mu.Unlock()
			lease := c.lease()
			defer lease.release()
			for _, idx := range idxs {
				f, err := lease.frame(ent, idx)
				if err != nil {
					errs <- err
					return
				}
				if f.Index != idx || !framesEqual(f, refs[idx]) {
					errs <- fmt.Errorf("goroutine %d: frame %d differs from the reference decode", g, idx)
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
	var held []int
	for _, start := range []int{0, 20, 40} {
		c.mu.Lock()
		e := c.entries[gopKey{video: "shuffled", start: start}]
		c.mu.Unlock()
		if e != nil {
			held = append(held, heldIndices(c, e)...)
		}
	}
	if len(held) != len(requested) {
		t.Fatalf("holds %d frames %v, want the %d requested", len(held), held, len(requested))
	}
	for _, idx := range held {
		if !requested[idx] {
			t.Fatalf("holds frame %d, which nobody requested", idx)
		}
	}
	if b, want := c.bytes.Load(), heldBytes(c); b != want {
		t.Fatalf("charged %d B, holds %d B", b, want)
	}
}

// TestGOPCacheFailedExtendChargesDecodedFrames corrupts a payload in the
// middle of a GOP and extends past it: the failed roll keeps nothing, so
// the charge stays equal to the one frame held, while the decode counter
// counts every frame both rolls decoded.
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
	c := newGOPCache(1 << 30)
	e, err := c.acquire(ent, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(e)
	if _, err := c.roll(ent, e, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.roll(ent, e, 8); err == nil {
		t.Fatal("frame 8 decoded through a corrupt payload")
	}
	const frameBytes = 32 * 24 * 3
	if held := heldIndices(c, e); len(held) != 1 || held[0] != 2 {
		t.Fatalf("holds frames %v after the failed roll, want [2]", held)
	}
	if !framesEqual(e.frames[2], decodeRef(t, clean, 2)) {
		t.Fatal("held frame 2 differs from the reference decode")
	}
	// 0..2, then 3..6 before frame 7, the first corrupt one.
	if e.bytes != frameBytes || c.bytes.Load() != frameBytes || c.framesDecoded.Load() != 7 {
		t.Fatalf("charged %d B to the entry and %d B to the cache, counted %d frames; holds %d B, decoded 7",
			e.bytes, c.bytes.Load(), c.framesDecoded.Load(), frameBytes)
	}
}

// TestGOPCacheByteBudgetEviction verifies the byte accounting: filling
// the cache past its budget evicts LRU unpinned entries and the resident
// byte count stays within the limit once nothing is pinned.
func TestGOPCacheByteBudgetEviction(t *testing.T) {
	ent := gopTestEntry(t, "evict", 100, 10) // 10 GOPs of 10 frames
	frameBytes := int64(32 * 24 * 3)
	budget := 25 * frameBytes // fits ~2.5 GOPs of 10 frames
	c := newGOPCache(budget)

	for start := 0; start < 100; start += 10 { // every frame of every GOP
		if err := requestAll(c, ent, start, start+10); err != nil {
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
	c := newGOPCache(15 * frameBytes) // ~1.5 GOPs

	// Pin GOP 0 fully decoded.
	lease := c.lease()
	for idx := 0; idx < 9; idx++ {
		if _, err := lease.frame(ent, idx); err != nil {
			t.Fatal(err)
		}
	}
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
				start := ((g+round)%9 + 1) * 10
				if err := requestAll(c, ent, start, start+10); err != nil {
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
	for start := 10; start < 100; start += 10 {
		if err := requestAll(c, ent, start, start+10); err != nil {
			t.Fatal(err)
		}
	}
	if b := c.bytes.Load(); b > 15*frameBytes {
		t.Fatalf("bytes %d over budget with no pins", b)
	}
}

// TestGOPCacheScanResistance pins the LRU victim order: when a new GOP
// overflows the budget, the least recently used GOP goes and the most
// recently used one survives, however often either was touched before.
func TestGOPCacheScanResistance(t *testing.T) {
	ent := gopTestEntry(t, "scan", 100, 10) // 10 GOPs of 10 frames
	frameBytes := int64(32 * 24 * 3)
	c := newGOPCache(25 * frameBytes) // two 10-frame GOPs fit, three do not

	touch := func(start int) { // every frame of the GOP at start
		t.Helper()
		if err := requestAll(c, ent, start, start+10); err != nil {
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
	touch(0)
	for i := 0; i < 8; i++ {
		touch(10)
	}
	touch(0)
	touch(20) // overflows: the least recently used entry goes
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

// TestGOPCacheDerivedFrames covers the derived superset-frame cache: a
// lookup misses until the first publish, a second publish under the same
// descriptor returns the first frame uncharged, and the bytes leave with
// the entry.
func TestGOPCacheDerivedFrames(t *testing.T) {
	ent := gopTestEntry(t, "derived", 10, 10)
	c := newGOPCache(1 << 30)
	lease := c.lease()
	if _, err := lease.frame(ent, 5); err != nil {
		t.Fatal(err)
	}
	e, err := lease.entryFor(ent, 5)
	if err != nil {
		t.Fatal(err)
	}
	bytesBefore := c.bytes.Load()
	if f := c.derivedFrame(e, "k1"); f != nil {
		t.Fatal("lookup found a frame before any publish")
	}
	f1, f2 := frame.New(8, 8, 3), frame.New(8, 8, 3)
	if got := c.publishDerived(e, "k1", f1); got != f1 {
		t.Fatal("first publish did not win")
	}
	if got := c.derivedFrame(e, "k1"); got != f1 {
		t.Fatal("lookup after publish did not return the published frame")
	}
	if got := c.publishDerived(e, "k1", f2); got != f1 {
		t.Fatal("second publish replaced the first frame")
	}
	if got := c.bytes.Load() - bytesBefore; got != int64(f1.Bytes()) {
		t.Fatalf("derived bytes %d, want one frame of %d", got, f1.Bytes())
	}
	if f := c.derivedFrame(e, "k2"); f != nil {
		t.Fatal("lookup of another descriptor found a frame")
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

// TestGOPCacheFirstPublishWins releases K goroutines at once onto one
// cold frame and then onto one derived descriptor. Every roller must get
// the reference pixels in the one frame that stays held, every publisher
// must get the one frame that stays published, and the cache must charge
// exactly one copy of each. Run under -race this checks that decodes and
// derived computations outside the cache lock share nothing unlocked.
func TestGOPCacheFirstPublishWins(t *testing.T) {
	const k, idx = 8, 17
	ent := gopTestEntry(t, "race", 30, 30) // one GOP
	ref := decodeRef(t, ent, idx)
	c := newGOPCache(1 << 30)
	lease := c.lease()
	defer lease.release()
	e, err := lease.entryFor(ent, idx)
	if err != nil {
		t.Fatal(err)
	}
	// race runs fn on k goroutines released together and returns what
	// each got.
	race := func(fn func(g int) (*frame.Frame, error)) []*frame.Frame {
		got := make([]*frame.Frame, k)
		errs := make([]error, k)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < k; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got[g], errs[g] = fn(g)
			}(g)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return got
	}

	rolled := race(func(int) (*frame.Frame, error) { return c.roll(ent, e, idx) })
	for g, f := range rolled {
		if !framesEqual(f, ref) {
			t.Fatalf("roller %d: frame %d differs from the reference decode", g, idx)
		}
		if f != rolled[0] {
			t.Fatalf("roller %d got a frame other than the one held", g)
		}
	}
	if held := heldIndices(c, e); len(held) != 1 || held[0] != idx {
		t.Fatalf("holds frames %v, want [%d]", held, idx)
	}

	published := race(func(g int) (*frame.Frame, error) {
		f := frame.New(8, 8, 3)
		for i := range f.Pix {
			f.Pix[i] = byte(g)
		}
		return c.publishDerived(e, "sup", f), nil
	})
	for g, f := range published {
		if f != published[0] {
			t.Fatalf("publisher %d got a frame other than the first published", g)
		}
	}
	if c.derivedFrame(e, "sup") != published[0] {
		t.Fatal("lookup does not return the winning frame")
	}
	if got, want := c.bytes.Load(), heldBytes(c)+int64(published[0].Bytes()); got != want {
		t.Fatalf("charged %d B, want the held frame plus one derived frame, %d B", got, want)
	}
}

// FuzzGOPRequests turns its input into a sequence of frame requests on a
// two-GOP video under a budget of eight frames: each byte's low seven bits
// pick a frame, and a set top bit releases the current lease first, so
// requests interleave rolls, re-rolls, extensions and evictions. Every
// returned frame must match the reference decode, and the cache's charge
// must equal the bytes of the frames it holds.
func FuzzGOPRequests(f *testing.F) {
	const n, frameBytes = 24, 32 * 24 * 3
	ent := gopTestEntry(f, "fuzz", n, 12) // GOPs at 0 and 12
	refs := make([]*frame.Frame, n)
	for i := range refs {
		refs[i] = decodeRef(f, ent, i)
	}
	f.Add([]byte{3, 7, 11, 5, 1})
	f.Add([]byte{23, 12, 0, 0x80 | 11, 13, 22, 21})
	f.Add([]byte{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0x80, 12, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newGOPCache(8 * frameBytes)
		lease := c.lease()
		for _, b := range data {
			if b&0x80 != 0 {
				lease.release()
				lease = c.lease()
			}
			idx := int(b&0x7f) % n
			got, err := lease.frame(ent, idx)
			if err != nil {
				t.Fatal(err)
			}
			if got.Index != idx || !framesEqual(got, refs[idx]) {
				t.Fatalf("frame %d differs from the reference decode", idx)
			}
			if b, held := c.bytes.Load(), heldBytes(c); b != held {
				t.Fatalf("after frame %d: charged %d B, holds %d B", idx, b, held)
			}
		}
		lease.release()
		if b, held := c.bytes.Load(), heldBytes(c); b != held || b > 8*frameBytes {
			t.Fatalf("after release: charged %d B, holds %d B, budget %d B", b, held, 8*frameBytes)
		}
	})
}
