package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sand/internal/obs"
)

func newMemStore(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := Open(Options{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func obj(key string, size int, deadline int64) *Object {
	return &Object{Key: key, Data: bytes.Repeat([]byte{0xAB}, size), Deadline: deadline}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{MemBudget: 0}); err == nil {
		t.Fatal("accepted zero memory budget")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newMemStore(t, 1000)
	o := obj("/task/v1/frame3", 100, 5)
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("/task/v1/frame3")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, o.Data) {
		t.Fatal("data mismatch")
	}
	if _, err := s.Get("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key error = %v", err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.MemObjects != 1 || st.MemBytes != 100 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPutValidation(t *testing.T) {
	s := newMemStore(t, 100)
	if err := s.Put(nil); err == nil {
		t.Fatal("accepted nil object")
	}
	if err := s.Put(&Object{Key: ""}); err == nil {
		t.Fatal("accepted empty key")
	}
	if err := s.Put(&Object{Key: "relative"}); err == nil {
		t.Fatal("accepted relative key")
	}
	if err := s.Put(obj("/big", 200, 0)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("object larger than budget: got %v, want ErrTooLarge", err)
	}
}

func TestPutReplaceAccounting(t *testing.T) {
	s := newMemStore(t, 1000)
	s.Put(obj("/k", 100, 0))
	s.Put(obj("/k", 50, 0))
	if got := s.MemBytes(); got != 50 {
		t.Fatalf("replace accounting: %d bytes, want 50", got)
	}
}

func TestEvictionThresholdRespected(t *testing.T) {
	s := newMemStore(t, 1000) // threshold at 750
	for i := 0; i < 10; i++ {
		if err := s.Put(obj(fmt.Sprintf("/o%d", i), 100, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MemBytes(); got > 750 {
		t.Fatalf("memory %d above 75%% threshold after Puts", got)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestEvictionOrderUsedEphemeralFirst(t *testing.T) {
	s := newMemStore(t, 1000)
	// Fill to just under threshold with three classes of objects.
	usedEphemeral := obj("/used-eph", 200, 1) // most urgent deadline, but used+ephemeral
	usedEphemeral.Used = true
	usedEphemeral.Ephemeral = true
	longDeadline := obj("/long", 200, 100)
	shortDeadline := obj("/short", 200, 2)
	s.Put(usedEphemeral)
	s.Put(longDeadline)
	s.Put(shortDeadline)
	// Push over threshold.
	s.Put(obj("/push", 300, 50))
	if in, _ := s.Contains("/used-eph"); in {
		t.Fatal("used+ephemeral object survived eviction")
	}
	if in, _ := s.Contains("/short"); !in {
		t.Fatal("short-deadline object evicted before longer-deadline ones")
	}
}

func TestEvictionOrderLongestDeadline(t *testing.T) {
	s := newMemStore(t, 1000)
	s.Put(obj("/d10", 200, 10))
	s.Put(obj("/d99", 200, 99))
	s.Put(obj("/d5", 200, 5))
	s.Put(obj("/d50", 300, 50)) // pushes to 900 > 750
	if in, _ := s.Contains("/d99"); in {
		t.Fatal("longest-deadline object survived")
	}
	if in, _ := s.Contains("/d5"); !in {
		t.Fatal("most urgent object was evicted")
	}
}

func TestDiskSpillAndPromotion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 1000, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Non-ephemeral objects spill to disk under pressure.
	for i := 0; i < 8; i++ {
		if err := s.Put(obj(fmt.Sprintf("/spill/o%d", i), 150, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DiskObjects == 0 || st.Spills == 0 {
		t.Fatalf("nothing spilled: %+v", st)
	}
	// Every object must still be readable (from memory or disk).
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("/spill/o%d", i)
		got, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if len(got.Data) != 150 {
			t.Fatalf("Get(%s) returned %d bytes", key, len(got.Data))
		}
	}
}

func TestPersistAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 10000, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	o := obj("/task/v2/frame7/aug1", 500, 3)
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist("/task/v2/frame7/aug1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Persist(ghost) = %v", err)
	}
	// Simulate crash: reopen over the same directory.
	s2, err := Open(Options{MemBudget: 10000, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("/task/v2/frame7/aug1")
	if err != nil {
		t.Fatalf("recovery lost object: %v", err)
	}
	if !bytes.Equal(got.Data, o.Data) {
		t.Fatal("recovered data differs")
	}
	if _, onDisk := s2.Contains("/task/v2/frame7/aug1"); !onDisk {
		t.Fatal("recovered object not registered on disk tier")
	}
}

func TestDiskBudgetEnforced(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 10000, DiskBudget: 600, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(obj("/a", 500, 0))
	if err := s.Persist("/a"); err != nil {
		t.Fatal(err)
	}
	s.Put(obj("/b", 500, 0))
	if err := s.Persist("/b"); err == nil {
		t.Fatal("disk budget not enforced")
	}
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 10000, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(obj("/x/y", 100, 0))
	s.Persist("/x/y")
	if err := s.Delete("/x/y"); err != nil {
		t.Fatal(err)
	}
	if inMem, onDisk := s.Contains("/x/y"); inMem || onDisk {
		t.Fatal("delete left object behind")
	}
	if _, err := os.Stat(filepath.Join(dir, "x", "y.obj")); !os.IsNotExist(err) {
		t.Fatal("delete left file behind")
	}
	if st := s.Stats(); st.MemBytes != 0 || st.DiskBytes != 0 {
		t.Fatalf("delete accounting: %+v", st)
	}
	// Deleting a missing key is fine.
	if err := s.Delete("/nope"); err != nil {
		t.Fatal(err)
	}
}

func TestKeysPrefix(t *testing.T) {
	s := newMemStore(t, 100000)
	for _, k := range []string{"/t1/v1/frame1", "/t1/v1/frame2", "/t1/v2/frame1", "/t2/v1/frame1"} {
		s.Put(obj(k, 10, 0))
	}
	got := s.Keys("/t1/v1/")
	if len(got) != 2 || got[0] != "/t1/v1/frame1" || got[1] != "/t1/v1/frame2" {
		t.Fatalf("Keys = %v", got)
	}
	if len(s.Keys("/")) != 4 {
		t.Fatal("root prefix should list everything")
	}
}

func TestMarkUsedAndPressure(t *testing.T) {
	s := newMemStore(t, 1000)
	o := obj("/u", 400, 1)
	o.Ephemeral = true
	s.Put(o)
	s.MarkUsed("/u")
	if !o.Used {
		t.Fatal("MarkUsed did not set flag")
	}
	if p := s.MemPressure(); p != 0.4 {
		t.Fatalf("pressure = %v, want 0.4", p)
	}
	s.MarkUsed("/missing") // no-op, must not panic
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 50000, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("/c/%d/%d", g, i)
				if err := s.Put(obj(key, 100, int64(i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := s.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
					// Eviction may race the Get; only structural errors fail.
					t.Errorf("Get: %v", err)
					return
				}
				s.MarkUsed(key)
			}
		}(g)
	}
	wg.Wait()
	// Accounting must be consistent after the storm.
	st := s.Stats()
	var memSum int64
	for _, k := range s.Keys("/c/") {
		if in, _ := s.Contains(k); in {
			o, err := s.Get(k)
			if err == nil {
				memSum += int64(len(o.Data))
			}
		}
	}
	if st.MemBytes < 0 || st.DiskBytes < 0 {
		t.Fatalf("negative accounting: %+v", st)
	}
}

// TestEvictionEventsEmitted drives the store across the 75% watermark
// with tracing on and checks the watermark instant and evict_pass span
// land in the trace buffer.
func TestEvictionEventsEmitted(t *testing.T) {
	reg := obs.New()
	reg.Trace().Enable()
	s, err := Open(Options{MemBudget: 1000, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(obj(fmt.Sprintf("/o%d", i), 100, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	kinds := map[string]int{}
	for _, e := range reg.Trace().Events() {
		kinds[e.Kind()]++
	}
	if kinds["storage.watermark"] == 0 {
		t.Fatalf("no watermark events: %v", kinds)
	}
	if kinds["storage.evict_pass"] == 0 {
		t.Fatalf("no evict_pass spans: %v", kinds)
	}
}

func TestColdSpillCompressed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 1000, Dir: dir, ColdCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two highly compressible payloads, then a push that evicts both:
	// every spill that deflate shrinks goes compressed.
	s.Put(&Object{Key: "/t/a", Data: bytes.Repeat([]byte{7}, 300), Deadline: 50})
	s.Put(&Object{Key: "/t/b", Data: bytes.Repeat([]byte{7}, 300), Deadline: 50})
	s.Put(&Object{Key: "/t/push", Data: bytes.Repeat([]byte{1}, 500), Deadline: 1})
	s.mu.Lock()
	compressed := 0
	for _, e := range s.disk {
		if strings.HasSuffix(e.path, ".objz") {
			compressed++
		}
	}
	s.mu.Unlock()
	if compressed != 2 {
		t.Fatalf("compressed spills = %d, want 2", compressed)
	}
	if saved := s.spillSaved.Load(); saved <= 0 {
		t.Fatalf("spill_bytes_saved = %d, want > 0", saved)
	}
	// Both spilled objects must promote back byte-identical.
	for _, key := range []string{"/t/a", "/t/b"} {
		got, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if !bytes.Equal(got.Data, bytes.Repeat([]byte{7}, 300)) {
			t.Fatalf("Get(%s) returned corrupted bytes after spill round-trip", key)
		}
	}
}

func TestColdSpillRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 10000, Dir: dir, ColdCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{9}, 500)
	if err := s.Put(&Object{Key: "/r/cold", Data: want, Deadline: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist("/r/cold"); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory must recover the compressed
	// (.objz) object and inflate it on read.
	s2, err := Open(Options{MemBudget: 10000, Dir: dir, ColdCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("/r/cold")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatal("recovered compressed spill returned different bytes")
	}
}
