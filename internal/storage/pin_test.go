package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// pinStore opens a memory-only store with a small budget.
func pinStore(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := Open(Options{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, key string, size int, ueph bool) {
	t.Helper()
	obj := &Object{Key: key, Data: bytes.Repeat([]byte{byte(len(key))}, size), Used: ueph, Ephemeral: ueph}
	if err := s.Put(obj); err != nil {
		t.Fatal(err)
	}
}

// TestPinSkipsEviction: a pinned object survives an eviction pass that
// reclaims everything else in its class; after release it is evictable
// again.
func TestPinSkipsEviction(t *testing.T) {
	s := pinStore(t, 1000)
	put(t, s, "/a", 300, true)
	obj, pin, err := s.GetPinned("/a")
	if err != nil || pin == nil {
		t.Fatalf("GetPinned: %v (pin=%v)", err, pin)
	}
	if got := s.PinnedBytes(); got != 300 {
		t.Fatalf("pinned bytes = %d, want 300", got)
	}

	// Flood past the watermark with other used-ephemeral objects: the
	// pass must drain them and leave /a alone.
	for i := 0; i < 6; i++ {
		put(t, s, fmt.Sprintf("/fill%d", i), 200, true)
	}
	if inMem, _ := s.Contains("/a"); !inMem {
		t.Fatal("pinned object was evicted")
	}
	if !bytes.Equal(obj.Data, bytes.Repeat([]byte{2}, 300)) {
		t.Fatal("pinned object bytes changed under eviction")
	}

	pin.Release()
	pin.Release() // idempotent
	if got := s.PinnedBytes(); got != 0 {
		t.Fatalf("pinned bytes after release = %d, want 0", got)
	}
	// Now the same flood can claim /a.
	s.MarkUsed("/a")
	for i := 0; i < 6; i++ {
		put(t, s, fmt.Sprintf("/refill%d", i), 200, true)
	}
	if inMem, _ := s.Contains("/a"); inMem {
		t.Fatal("released object survived a pass that needed its bytes")
	}
}

// TestPinNested: the object stays ineligible until the last lease drops.
func TestPinNested(t *testing.T) {
	s := pinStore(t, 1000)
	put(t, s, "/a", 400, true)
	_, p1, _ := s.GetPinned("/a")
	_, p2, _ := s.GetPinned("/a")
	if got := s.PinnedBytes(); got != 400 {
		t.Fatalf("pinned bytes = %d, want 400 (not double-counted)", got)
	}
	p1.Release()
	put(t, s, "/b", 500, true) // over the 750 watermark: pass runs
	if inMem, _ := s.Contains("/a"); !inMem {
		t.Fatal("object with an outstanding pin was evicted")
	}
	p2.Release()
	if got := s.PinnedBytes(); got != 0 {
		t.Fatalf("pinned bytes = %d, want 0", got)
	}
}

// TestPinSurvivesReplaceAndDelete: displacing or deleting a pinned key
// settles the accounting once; the holder's bytes stay intact and the
// late Release does not double-subtract.
func TestPinSurvivesReplaceAndDelete(t *testing.T) {
	s := pinStore(t, 10000)
	put(t, s, "/a", 100, false)
	obj, pin, _ := s.GetPinned("/a")
	want := append([]byte(nil), obj.Data...)

	put(t, s, "/a", 150, false) // replace while pinned
	if got := s.PinnedBytes(); got != 0 {
		t.Fatalf("pinned bytes after replace = %d, want 0", got)
	}
	if !bytes.Equal(obj.Data, want) {
		t.Fatal("pin holder's bytes changed when the key was replaced")
	}
	pin.Release()
	if got := s.PinnedBytes(); got < 0 {
		t.Fatalf("pinned bytes went negative: %d", got)
	}

	put(t, s, "/b", 100, false)
	_, pinB, _ := s.GetPinned("/b")
	if err := s.Delete("/b"); err != nil {
		t.Fatal(err)
	}
	if got := s.PinnedBytes(); got != 0 {
		t.Fatalf("pinned bytes after delete = %d, want 0", got)
	}
	pinB.Release()
	if got := s.PinnedBytes(); got != 0 {
		t.Fatalf("pinned bytes after late release = %d, want 0", got)
	}
}

// TestGetPinnedPromotesFromDisk: a spilled object is promoted and pinned
// in one call.
func TestGetPinnedPromotesFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 10000, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "/a", 200, false)
	if err := s.Persist("/a"); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same dir recovers the object disk-resident.
	s2, err := Open(Options{MemBudget: 10000, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if inMem, onDisk := s2.Contains("/a"); inMem || !onDisk {
		t.Fatalf("setup: inMem=%v onDisk=%v, want disk only", inMem, onDisk)
	}
	obj, pin, err := s2.GetPinned("/a")
	if err != nil {
		t.Fatal(err)
	}
	if pin == nil {
		t.Fatal("promotion returned no pin")
	}
	if len(obj.Data) != 200 {
		t.Fatalf("promoted %d bytes, want 200", len(obj.Data))
	}
	if got := s2.PinnedBytes(); got != 200 {
		t.Fatalf("pinned bytes = %d, want 200", got)
	}
	pin.Release()
}

// TestPinConcurrent hammers pin/release against Put/eviction churn;
// accounting must reconcile to zero and no pinned
// payload may ever change. Run with -race.
func TestPinConcurrent(t *testing.T) {
	s := pinStore(t, 64<<10)
	const keys = 16
	for i := 0; i < keys; i++ {
		put(t, s, fmt.Sprintf("/k%d", i), 1024, false)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("/k%d", (g*7+i)%keys)
				obj, pin, err := s.GetPinned(key)
				if err != nil {
					// Evicted between churn puts; repopulate.
					put(t, s, key, 1024, false)
					continue
				}
				first := obj.Data[0]
				for _, b := range obj.Data {
					if b != first {
						t.Errorf("pinned payload mutated: %d != %d", b, first)
						break
					}
				}
				pin.Release()
			}
		}(g)
	}
	// Churn: keep the store above its watermark so passes run while
	// pins come and go.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			put(t, s, fmt.Sprintf("/churn%d", i%40), 2048, true)
		}
	}()
	wg.Wait()
	if got := s.PinnedBytes(); got != 0 {
		t.Fatalf("pinned bytes after all releases = %d, want 0", got)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, o := range s.mem {
		if o.pins != 0 {
			t.Fatalf("%s still holds %d pins after all releases", key, o.pins)
		}
	}
}
