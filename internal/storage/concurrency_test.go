package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sand/internal/obs"
)

// evictionWorkload is a seeded object stream: equal-sized objects with
// pseudo-random deadlines, uephPct percent of them used+ephemeral. Object
// i is keyed under prefix /wl/<i mod spread>/, so the stream interleaves
// spread key namespaces, as per-video and per-task keys do.
func evictionWorkload(n, size, uephPct, spread int, seed int64) []*Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*Object, n)
	for i := 0; i < n; i++ {
		o := &Object{
			Key:      fmt.Sprintf("/wl/%d/%03d", i%spread, i),
			Data:     bytes.Repeat([]byte{byte(i)}, size),
			Deadline: int64(rng.Intn(10_000)),
		}
		if rng.Intn(100) < uephPct {
			o.Used, o.Ephemeral = true, true
		}
		objs[i] = o
	}
	return objs
}

// retainedAfter replays the workload into a store and returns the
// retained (in-memory) key set.
func retainedAfter(t *testing.T, objs []*Object, budget int64) map[string]bool {
	t.Helper()
	s, err := Open(Options{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		// Re-allocate per store: stores share no *Object state.
		cp := *o
		cp.Data = append([]byte(nil), o.Data...)
		if err := s.Put(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if got, thr := s.MemBytes(), s.watermark(); got > thr {
		t.Fatalf("store above watermark after workload: %d > %d", got, thr)
	}
	retained := map[string]bool{}
	for _, k := range s.Keys("/wl/") {
		if in, _ := s.Contains(k); in {
			retained[k] = true
		}
	}
	return retained
}

// modelRetained replays objs through an exact model of the §6 eviction
// algorithm: after each Put over the 75% watermark, evict in global
// priority order (used-ephemeral first, then longest deadline, key
// tie-break) until back under. It returns the retained key set.
func modelRetained(objs []*Object, budget int64) map[string]bool {
	before := func(a, b *Object) bool {
		if ua, ub := a.Used && a.Ephemeral, b.Used && b.Ephemeral; ua != ub {
			return ua
		}
		if a.Deadline != b.Deadline {
			return a.Deadline > b.Deadline
		}
		return a.Key < b.Key
	}
	live := map[string]*Object{}
	var liveBytes int64
	thr := int64(float64(budget) * EvictionThreshold)
	for _, o := range objs {
		live[o.Key] = o
		liveBytes += int64(len(o.Data))
		for liveBytes > thr {
			var victim *Object
			for _, c := range live {
				if victim == nil || before(c, victim) {
					victim = c
				}
			}
			delete(live, victim.Key)
			liveBytes -= int64(len(victim.Data))
		}
	}
	retained := map[string]bool{}
	for k := range live {
		retained[k] = true
	}
	return retained
}

// checkEvictionEquivalence checks the store against the exact-order
// model key for key, once per key spread. The "partial" workload evicts
// only part of the used-ephemeral class, so which members of that class
// go depends on the order within it; the "drain" workload evicts the
// whole class and then orders by deadline.
func checkEvictionEquivalence(t *testing.T, spreads ...int) {
	const (
		n      = 400
		size   = 1024
		budget = int64(256 * 1024) // watermark at 192 objects
	)
	workloads := []struct {
		name    string
		uephPct int
	}{
		{"drain", 20},   // ~80 used-ephemeral against ~208 evictions
		{"partial", 70}, // ~280 used-ephemeral against ~208 evictions
	}
	for _, wl := range workloads {
		for _, spread := range spreads {
			t.Run(fmt.Sprintf("%s/shards=%d", wl.name, spread), func(t *testing.T) {
				objs := evictionWorkload(n, size, wl.uephPct, spread, 7)
				want := modelRetained(objs, budget)
				got := retainedAfter(t, objs, budget)
				if len(got) != len(want) {
					t.Fatalf("store retained %d objects, model says %d", len(got), len(want))
				}
				for k := range want {
					if !got[k] {
						t.Fatalf("store evicted %s; the exact-order model retains it", k)
					}
				}
			})
		}
	}
}

// TestEvictionPolicyEquivalenceSingleShard: the store evicts in exactly
// the model's order when every key shares one namespace.
func TestEvictionPolicyEquivalenceSingleShard(t *testing.T) {
	checkEvictionEquivalence(t, 1)
}

// TestEvictionPolicyEquivalenceSharded: with the key stream spread over 2
// and 8 namespaces (the key spreads the store once hashed into separate
// shards), the one eviction pass still picks victims in the one global
// order, key for key.
func TestEvictionPolicyEquivalenceSharded(t *testing.T) {
	checkEvictionEquivalence(t, 2, 8)
}

// stressPayload is the one payload a stress key ever holds, so a file on
// disk can be checked against the resident copy whatever order the
// writers ran in. Even keys compress (.objz), odd keys do not (.obj).
func stressPayload(k int) []byte {
	if k%2 == 0 {
		return bytes.Repeat([]byte{byte(k)}, 256+8*k)
	}
	data := make([]byte, 256+8*k)
	rand.New(rand.NewSource(int64(k))).Read(data)
	return data
}

// TestParallelStress hammers one set of keys with concurrent
// Put/Get/MarkUsed/Delete/Persist and snapshot reads while eviction
// passes spill, then checks the accounting and the files against ground
// truth: every disk entry's file exists at its recorded size, the sizes
// sum to DiskBytes, no temporary file or unregistered spill is left, and
// every resident key's file holds its bytes. Run with -race, this is the
// contention-correctness gate for Persist's write outside the lock.
func TestParallelStress(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{MemBudget: 64 * 1024, DiskBudget: 512 * 1024, Dir: dir, ColdCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		iters   = 300
		keys    = 64
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 101))
			for i := 0; i < iters; i++ {
				k := rng.Intn(keys)
				key := fmt.Sprintf("/stress/%d", k)
				switch rng.Intn(11) {
				case 0, 1, 2, 3:
					o := &Object{Key: key, Data: stressPayload(k), Deadline: int64(rng.Intn(100))}
					if rng.Intn(3) == 0 {
						o.Used, o.Ephemeral = true, true
					}
					if err := s.Put(o); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 4, 5, 6:
					if _, err := s.Get(key); err != nil && err != ErrNotFound {
						t.Errorf("Get: %v", err)
						return
					}
				case 7:
					s.MarkUsed(key)
				case 8:
					if err := s.Delete(key); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				case 9:
					if err := s.Persist(key); err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrDiskBudget) {
						t.Errorf("Persist: %v", err)
						return
					}
				case 10:
					_ = s.MemPressure()
					_ = s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	if s.spills.Load() == 0 {
		t.Fatal("no spill landed: the disk-tier checks below would be vacuous")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var memSum int64
	for _, o := range s.mem {
		memSum += int64(len(o.Data))
	}
	if got := s.MemBytes(); got != memSum {
		t.Fatalf("mem accounting drift: atomic %d, actual %d", got, memSum)
	}
	if thr := s.watermark(); memSum > thr {
		t.Fatalf("store left above watermark: %d > %d", memSum, thr)
	}
	var diskSum int64
	registered := map[string]bool{}
	for key, e := range s.disk {
		info, err := os.Stat(e.path)
		if err != nil {
			t.Fatalf("disk entry %s: %v", key, err)
		}
		if info.Size() != e.size {
			t.Fatalf("disk entry %s: file is %d bytes, entry says %d", key, info.Size(), e.size)
		}
		diskSum += e.size
		registered[e.path] = true
		if o, ok := s.mem[key]; ok {
			got, err := s.readSpill(e.path)
			if err != nil {
				t.Fatalf("disk entry %s: %v", key, err)
			}
			if !bytes.Equal(got, o.Data) {
				t.Fatalf("disk entry %s: file bytes differ from the resident object", key)
			}
		}
	}
	if got := s.diskBytes.Load(); got != diskSum {
		t.Fatalf("disk accounting drift: atomic %d, entries sum to %d", got, diskSum)
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !registered[path] {
			t.Errorf("file %s is not a registered disk entry", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGetConcurrentPromotion gates the disk read until K concurrent Gets
// and GetPinneds of one spilled key are all inside it, then lets them
// promote at once: every reader must get the payload, each read counts
// as a promotion, one copy stays resident, and the pinned bytes return to
// zero once every pin is released.
func TestGetConcurrentPromotion(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC7}, 512)
	if err := w.Put(&Object{Key: "/sf/obj", Data: payload}); err != nil {
		t.Fatal(err)
	}
	if err := w.Persist("/sf/obj"); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the directory holds the object on disk only, so
	// every reader below must promote it.
	s, err := Open(Options{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	gate := make(chan struct{})
	arrived := make(chan struct{}, readers)
	orig := readFile
	readFile = func(path string) ([]byte, error) {
		arrived <- struct{}{}
		<-gate
		return os.ReadFile(path)
	}
	defer func() { readFile = orig }()

	var wg sync.WaitGroup
	errs := make([]error, readers)
	data := make([][]byte, readers)
	pins := make([]*Pin, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var obj *Object
			if i%2 == 0 {
				obj, errs[i] = s.Get("/sf/obj")
			} else {
				obj, pins[i], errs[i] = s.GetPinned("/sf/obj")
			}
			if obj != nil {
				data[i] = obj.Data
			}
		}(i)
	}
	// No read can finish before the gate opens, so no copy is resident
	// yet and every reader reaches the disk.
	for i := 0; i < readers; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			close(gate)
			wg.Wait()
			t.Fatalf("only %d of %d readers reached the disk read", i, readers)
		}
	}
	close(gate)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(data[i], payload) {
			t.Fatalf("reader %d got wrong payload", i)
		}
	}
	st := s.Stats()
	if st.Promotions != readers {
		t.Fatalf("promotions = %d, want one per reader (%d)", st.Promotions, readers)
	}
	if st.MemObjects != 1 || st.MemBytes != int64(len(payload)) {
		t.Fatalf("memory tier holds %d objects, %d B; want one copy of %d B", st.MemObjects, st.MemBytes, len(payload))
	}
	if st.PinnedBytes > int64(len(payload)) {
		t.Fatalf("pinned bytes %d exceed the one resident copy (%d B)", st.PinnedBytes, len(payload))
	}
	for _, p := range pins {
		p.Release()
	}
	if got := s.PinnedBytes(); got != 0 {
		t.Fatalf("pinned bytes %d after every pin was released", got)
	}
}

// TestDiskBudgetReservationRace spills more objects concurrently than
// the disk budget admits: the up-front atomic reservation must admit
// exactly budget/size of them and leave the accounting exact: a
// check-then-act budget test would let several racers through.
func TestDiskBudgetReservationRace(t *testing.T) {
	dir := t.TempDir()
	const size = 512
	s, err := Open(Options{MemBudget: 1 << 20, DiskBudget: 3 * size, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const total = 8
	for i := 0; i < total; i++ {
		if err := s.Put(&Object{Key: fmt.Sprintf("/race/%d", i), Data: make([]byte, size)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Persist(fmt.Sprintf("/race/%d", i)); err == nil {
				ok.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if got := ok.Load(); got != 3 {
		t.Fatalf("%d spills admitted against a 3-object budget", got)
	}
	if got := s.Stats().DiskBytes; got != 3*size {
		t.Fatalf("disk accounting after racing spills: %d, want %d", got, 3*size)
	}
	var files int64
	for _, k := range s.Keys("/race/") {
		if _, onDisk := s.Contains(k); onDisk {
			files++
		}
	}
	if files != 3 {
		t.Fatalf("%d objects on disk, want 3", files)
	}
}

// TestWatermarkTrackedWhileTracerDisabled drives crossings with tracing
// on, off, and re-enabled: the crossing state must stay correct across
// disabled periods (it used to be updated only under tr.Enabled()), so
// re-enabling mid-run neither misses nor duplicates events.
func TestWatermarkTrackedWhileTracerDisabled(t *testing.T) {
	reg := obs.New()
	reg.Trace().Enable()
	s, err := Open(Options{MemBudget: 1000, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	countEvents := func() (above, below int) {
		for _, e := range reg.Trace().Events() {
			if e.Kind() != "storage.watermark" {
				continue
			}
			switch e.Arg {
			case "above 75%":
				above++
			case "below 75%":
				below++
			}
		}
		return
	}

	// Crossing with tracing on: the eviction pass itself must emit the
	// downward crossing, not the next Put.
	if err := s.Put(&Object{Key: "/w/a", Data: make([]byte, 700), Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Object{Key: "/w/b", Data: make([]byte, 200), Deadline: 1}); err != nil {
		t.Fatal(err)
	}
	above, below := countEvents()
	if above != 1 || below != 1 {
		t.Fatalf("crossing events with tracing on: above=%d below=%d, want 1/1", above, below)
	}
	if s.above {
		t.Fatal("store settled below watermark but crossing state says above")
	}

	// Crossing while disabled: state keeps tracking, nothing is emitted.
	reg.Trace().Disable()
	if err := s.Put(&Object{Key: "/w/c", Data: make([]byte, 700), Deadline: 5}); err != nil {
		t.Fatal(err)
	}
	if s.above {
		t.Fatal("crossing state not maintained while tracer disabled")
	}
	above, below = countEvents()
	if above != 1 || below != 1 {
		t.Fatalf("disabled-period crossings leaked events: above=%d below=%d", above, below)
	}

	// Re-enable: a Put that stays below the watermark must not emit a
	// stale crossing event.
	reg.Trace().Enable()
	if err := s.Put(&Object{Key: "/w/d", Data: make([]byte, 10), Deadline: 2}); err != nil {
		t.Fatal(err)
	}
	above, below = countEvents()
	if above != 1 || below != 1 {
		t.Fatalf("re-enable emitted stale crossing: above=%d below=%d", above, below)
	}
	// And a genuine crossing after re-enable is seen exactly once.
	if err := s.Put(&Object{Key: "/w/e", Data: make([]byte, 740), Deadline: 3}); err != nil {
		t.Fatal(err)
	}
	above, below = countEvents()
	if above != 2 || below != 2 {
		t.Fatalf("post-re-enable crossing: above=%d below=%d, want 2/2", above, below)
	}
}
