package core

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sand/internal/config"
	"sand/internal/dataset"
	"sand/internal/frame"
	"sand/internal/obs"
	"sand/internal/vfs"
)

func miniDataset(t testing.TB, videos int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate("mini", dataset.VideoSpec{
		W: 48, H: 48, C: 3, Frames: 40, FPS: 30, GOP: 10,
	}, videos, 77)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func miniTask(t testing.TB, tag string) *config.Task {
	t.Helper()
	task := &config.Task{
		Tag:         tag,
		Source:      config.SourceFile,
		DatasetPath: "/data/mini",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 4, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{
			{
				Name: "resize", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"a0"},
				Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{32, 32}}}},
			},
			{
				Name: "crop", Type: config.BranchSingle,
				Inputs: []string{"a0"}, Outputs: []string{"a1"},
				Ops: []config.OpSpec{{Op: "random_crop", Params: map[string]any{"shape": []any{24, 24}}}},
			},
		},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	return task
}

func newService(t testing.TB, tasks []*config.Task, videos int) *Service {
	t.Helper()
	s, err := New(Options{
		Tasks:       tasks,
		Dataset:     miniDataset(t, videos),
		ChunkEpochs: 2,
		TotalEpochs: 4,
		MemBudget:   64 << 20,
		Workers:     4,
		Coordinate:  true,
		Seed:        5,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// metric reads one counter or gauge from the service's obs registry. A
// service must have a registry of its own (Options.Obs) for the value to
// be its own: every service without one reports into obs.Default().
func metric(t testing.TB, s *Service, name string) int64 {
	t.Helper()
	v, ok := s.Obs().Query(name)
	if !ok {
		t.Fatalf("no metric %q", name)
	}
	return int64(v)
}

func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mkClip := func() *frame.Clip {
		frames := make([]*frame.Frame, 3)
		for i := range frames {
			f := frame.New(8, 8, 3)
			rng.Read(f.Pix)
			frames[i] = f
		}
		c, _ := frame.NewClip(frames)
		return c
	}
	b := &frame.Batch{
		Clips:     []*frame.Clip{mkClip(), mkClip()},
		Labels:    []string{"archery", "bowling"},
		Epoch:     3,
		Iteration: 17,
	}
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.Iteration != 17 || got.Len() != 2 {
		t.Fatalf("header wrong: %+v", got)
	}
	if got.Labels[0] != "archery" || got.Labels[1] != "bowling" {
		t.Fatalf("labels wrong: %v", got.Labels)
	}
	for i := range b.Clips {
		for j := range b.Clips[i].Frames {
			if !b.Clips[i].Frames[j].Equal(got.Clips[i].Frames[j]) {
				t.Fatalf("clip %d frame %d differs", i, j)
			}
		}
	}
}

// TestEncodeBatchOwnsItsBytes: EncodeBatch encodes into a pooled buffer
// but returns its own exact-size copy, which a later encode leaves alone.
func TestEncodeBatchOwnsItsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mkBatch := func(iter int) *frame.Batch {
		f := frame.New(24, 16, 3)
		rng.Read(f.Pix)
		c, _ := frame.NewClip([]*frame.Frame{f, f.Clone()})
		return &frame.Batch{Clips: []*frame.Clip{c}, Iteration: iter}
	}
	first := mkBatch(1)
	data, err := EncodeBatch(first)
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Fatalf("cap %d != len %d: the store would undercount the batch", cap(data), len(data))
	}
	if _, err := EncodeBatch(mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 1 || !got.Clips[0].Frames[1].Equal(first.Clips[0].Frames[1]) {
		t.Fatal("a later EncodeBatch changed an earlier batch's bytes")
	}
}

func TestBatchCodecErrors(t *testing.T) {
	if _, err := EncodeBatch(&frame.Batch{}); err == nil {
		t.Fatal("accepted empty batch")
	}
	c, _ := frame.NewClip([]*frame.Frame{frame.New(2, 2, 1)})
	if _, err := EncodeBatch(&frame.Batch{Clips: []*frame.Clip{c}, Labels: []string{"a", "b"}}); err == nil {
		t.Fatal("accepted label/clip mismatch")
	}
	if _, err := EncodeBatch(&frame.Batch{Clips: []*frame.Clip{c, {}}}); err == nil {
		t.Fatal("accepted a clip with no frames, which DecodeBatch rejects")
	}
	if _, err := DecodeBatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted garbage")
	}
	good, _ := EncodeBatch(&frame.Batch{Clips: []*frame.Clip{c}})
	if _, err := DecodeBatch(good[:len(good)-3]); err == nil {
		t.Fatal("accepted truncated batch")
	}
}

func TestServiceValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("accepted empty options")
	}
	ds := miniDataset(t, 1)
	if _, err := New(Options{Dataset: ds}); err == nil {
		t.Fatal("accepted no tasks")
	}
	task := miniTask(t, "a")
	if _, err := New(Options{Tasks: []*config.Task{task, task}, Dataset: ds}); err == nil {
		t.Fatal("accepted duplicate task tags")
	}
}

func TestSingleTaskBatchDelivery(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 4)
	loader, err := s.NewLoader("train")
	if err != nil {
		t.Fatal(err)
	}
	iters, err := s.ItersPerEpoch("train")
	if err != nil || iters != 2 {
		t.Fatalf("iters = %d (%v), want 2", iters, err)
	}
	batch, meta, err := loader.Next(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// videos_per_batch=2 x samples_per_video=1 = 2 clips.
	if batch.Len() != 2 {
		t.Fatalf("batch has %d clips", batch.Len())
	}
	for _, clip := range batch.Clips {
		if clip.Len() != 4 {
			t.Fatalf("clip has %d frames, want frames_per_video=4", clip.Len())
		}
		w, h, c := clip.Geometry()
		if w != 24 || h != 24 || c != 3 {
			t.Fatalf("clip geometry %dx%dx%d, want 24x24x3 after crop", w, h, c)
		}
	}
	if meta.Clips != 2 || meta.FramesPerClip != 4 || meta.Geometry != "24x24x3" {
		t.Fatalf("meta wrong: %+v", meta)
	}
	if len(meta.Labels) != 2 || meta.Labels[0] == "" {
		t.Fatalf("labels missing: %+v", meta.Labels)
	}
	if len(meta.Timestamps) != 4 {
		t.Fatalf("timestamps: %v", meta.Timestamps)
	}
}

func TestEpochCoverage(t *testing.T) {
	// Every video appears exactly once per epoch across the epoch's
	// batches (the paper's data-access rule).
	s := newService(t, []*config.Task{miniTask(t, "train")}, 5)
	loader, _ := s.NewLoader("train")
	iters, _ := s.ItersPerEpoch("train")
	if iters != 3 { // ceil(5/2)
		t.Fatalf("iters = %d, want 3", iters)
	}
	for epoch := 0; epoch < 2; epoch++ {
		total := 0
		for it := 0; it < iters; it++ {
			batch, _, err := loader.Next(epoch, it)
			if err != nil {
				t.Fatalf("epoch %d iter %d: %v", epoch, it, err)
			}
			total += batch.Len()
		}
		if total != 5 {
			t.Fatalf("epoch %d delivered %d clips, want 5 (one per video)", epoch, total)
		}
	}
}

func TestBatchesAreDeterministicPerIteration(t *testing.T) {
	// Re-reading the same view returns identical bytes (stable paths).
	s := newService(t, []*config.Task{miniTask(t, "train")}, 4)
	fs := s.FS()
	read := func() []byte {
		fd, err := fs.Open("/train/0/1/view")
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close(fd)
		data, err := fs.ReadAll(fd)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := read(), read()
	if string(a) != string(b) {
		t.Fatal("same view path returned different bytes")
	}
}

func TestChunkBoundaryReplan(t *testing.T) {
	// ChunkEpochs=2, TotalEpochs=4: epoch 2 forces a re-plan.
	s := newService(t, []*config.Task{miniTask(t, "train")}, 4)
	loader, _ := s.NewLoader("train")
	if _, _, err := loader.Next(2, 0); err != nil {
		t.Fatalf("post-chunk epoch failed: %v", err)
	}
	if n := metric(t, s, "core.chunks_planned"); n < 2 {
		t.Fatalf("chunks planned = %d, want >= 2", n)
	}
	// Beyond TotalEpochs: ENOENT.
	if _, _, err := loader.Next(4, 0); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("epoch beyond training = %v", err)
	}
}

func TestUnknownViewsRejected(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 2)
	fs := s.FS()
	for _, p := range []string{
		"/ghost/0/0/view",
		"/train/video_9999.mp4",
		"/train/video_0000/frame999",
		"/train/0/999/view",
	} {
		if _, err := fs.Open(p); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("Open(%q) = %v, want ErrNotExist", p, err)
		}
	}
}

// TestReadPastEpochEndFailsBeforeWork opens the iteration one past an
// epoch's end (what read-ahead asks for after the last batch): it must
// fail with ErrNotExist without running a scheduler task or moving the
// read position, and the next in-range read must still be a premat hit.
func TestReadPastEpochEndFailsBeforeWork(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 4)
	fs := s.FS()
	iters, err := s.ItersInEpoch("train", 0)
	if err != nil || iters != 2 {
		t.Fatalf("iters = %d (%v), want 2", iters, err)
	}
	fd, err := fs.Open(vfs.BatchPath("train", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	fs.Close(fd)
	// Let every submitted task finish so the counters hold still.
	waitPoolIdle(t, s)

	errsBefore, doneBefore := metric(t, s, "sched.errors"), metric(t, s, "sched.completed")
	hits := metric(t, s, "core.premat_hits")
	s.mu.Lock()
	pos := s.currentPos["train"]
	s.mu.Unlock()
	if _, err := fs.Open(vfs.BatchPath("train", 0, iters)); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Open past the epoch's end = %v, want ErrNotExist", err)
	}
	errsAfter, doneAfter := metric(t, s, "sched.errors"), metric(t, s, "sched.completed")
	if errsAfter != errsBefore || doneAfter != doneBefore {
		t.Fatalf("out-of-plan read ran work: errors %d -> %d, completed %d -> %d",
			errsBefore, errsAfter, doneBefore, doneAfter)
	}
	s.mu.Lock()
	moved := s.currentPos["train"] != pos
	s.mu.Unlock()
	if moved {
		t.Fatal("out-of-plan read moved the read position")
	}

	fd, err = fs.Open(vfs.BatchPath("train", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	fs.Close(fd)
	if got := metric(t, s, "core.premat_hits"); got != hits+1 {
		t.Fatalf("premat hits %d -> %d, want the in-range read to hit", hits, got)
	}
}

// waitPoolIdle waits until the service's pool has nothing queued and
// every task it dequeued has completed.
func waitPoolIdle(t testing.TB, s *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// The queue depth is read first: a task dequeued after this read
		// is counted running (dequeue bumps its run counter under the
		// same lock), while read after the snapshot a task dequeued in
		// between would be in neither figure.
		queued := s.pool.QueueDepth()
		snap := s.Obs().Snapshot()
		get := func(name string) int64 {
			v, ok := snap.Get(name)
			if !ok {
				t.Fatalf("no metric %q", name)
			}
			return int64(v)
		}
		running := get("sched.demand_runs") + get("sched.premat_runs") - get("sched.completed")
		if queued == 0 && running == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain: %d queued, %d running", queued, running)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestVideoAndFrameViews(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 2)
	fs := s.FS()
	// Video view returns the encoded container.
	fd, err := fs.Open("/train/video_0000.mp4")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadAll(fd)
	gop, err := fs.Getxattr(fd, "user.sand.gop")
	if err != nil || gop != "10" {
		t.Fatalf("gop xattr = %q %v", gop, err)
	}
	fs.Close(fd)
	if len(data) == 0 {
		t.Fatal("empty video view")
	}
	// Frame view returns a decodable frame.
	fd, err = fs.Open("/train/video_0000/frame7")
	if err != nil {
		t.Fatal(err)
	}
	fdata, _ := fs.ReadAll(fd)
	f, err := frame.DecodeFrame(fdata)
	if err != nil {
		t.Fatalf("frame view not a frame: %v", err)
	}
	if f.W != 48 || f.H != 48 {
		t.Fatalf("frame geometry %dx%d", f.W, f.H)
	}
	ft, err := fs.Getxattr(fd, "user.sand.frame_type")
	if err != nil || ft != "P" {
		t.Fatalf("frame 7 type = %q (GOP 10)", ft)
	}
	cost, _ := fs.Getxattr(fd, "user.sand.decode_cost")
	if cost != "8" {
		t.Fatalf("decode cost xattr = %q, want 8", cost)
	}
	fs.Close(fd)
}

// TestFrameViewBytesIndependentOfCache reads every raw frame view before
// and after the epochs have stored decoded frames as objects: a view's
// bytes must not depend on whether the store or the decoder served it.
func TestFrameViewBytesIndependentOfCache(t *testing.T) {
	task := &config.Task{
		Tag:         "raw",
		Source:      config.SourceFile,
		DatasetPath: "/data/mini",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 4, FrameStride: 2, SamplesPerVideo: 1},
	}
	s := newService(t, []*config.Task{task}, 2)
	fs := s.FS()
	views := func() map[string][]byte {
		out := map[string][]byte{}
		for _, e := range s.snapshot().Videos {
			for i := 0; i < e.Spec.Frames; i++ {
				path := fmt.Sprintf("/raw/%s/frame%d", e.Spec.Name, i)
				fd, err := fs.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				data, err := fs.ReadAll(fd)
				fs.Close(fd)
				if err != nil {
					t.Fatal(err)
				}
				out[path] = data
			}
		}
		return out
	}
	before := views()
	loader, _ := s.NewLoader("raw")
	iters, _ := s.ItersPerEpoch("raw")
	for e := 0; e < 4; e++ {
		for it := 0; it < iters; it++ {
			if _, _, err := loader.Next(e, it); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(s.store.Keys("/obj/")) == 0 {
		t.Fatal("the epochs stored no frame objects; the cached path went unexercised")
	}
	for path, data := range views() {
		if !bytes.Equal(data, before[path]) {
			t.Errorf("%s: bytes changed once the frame was cached", path)
		}
	}
}

func TestAugFrameView(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 2)
	fs := s.FS()
	fd, err := fs.Open("/train/video_0000/frame3/aug1")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close(fd)
	data, _ := fs.ReadAll(fd)
	f, err := frame.DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1 = after resize(32x32).
	if f.W != 32 || f.H != 32 {
		t.Fatalf("aug1 geometry %dx%d, want 32x32", f.W, f.H)
	}
	pipe, err := fs.Getxattr(fd, "user.sand.pipeline")
	if err != nil || !strings.Contains(pipe, "resize") {
		t.Fatalf("pipeline xattr = %q %v", pipe, err)
	}
	// Depth beyond the pipeline is ENOENT.
	if _, err := fs.Open("/train/video_0000/frame3/aug9"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("deep aug = %v", err)
	}
}

func TestReaddir(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 3)
	fs := s.FS()
	tasks, err := fs.Readdir("/")
	if err != nil || len(tasks) != 1 || tasks[0] != "train" {
		t.Fatalf("root listing = %v %v", tasks, err)
	}
	videos, err := fs.Readdir("/train")
	if err != nil || len(videos) != 3 {
		t.Fatalf("task listing = %v %v", videos, err)
	}
	frames, err := fs.Readdir("/train/video_0000.mp4")
	if err != nil || len(frames) == 0 {
		t.Fatalf("video listing = %v %v", frames, err)
	}
	if _, err := fs.Readdir("/ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("ghost dir = %v", err)
	}
}

func TestMultiTaskSharing(t *testing.T) {
	// Two tasks with identical pipelines over the same dataset must
	// reuse objects: the second task's reads hit the cache. TotalEpochs
	// equals the chunk length so no next-chunk pre-materialization runs
	// in the background and pollutes the decode counters.
	a, b := miniTask(t, "slowfast"), miniTask(t, "mae")
	s, err := New(Options{
		Tasks:       []*config.Task{a, b},
		Dataset:     miniDataset(t, 4),
		ChunkEpochs: 1,
		TotalEpochs: 1,
		MemBudget:   64 << 20,
		Workers:     4,
		Coordinate:  true,
		Seed:        5,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	la, _ := s.NewLoader("slowfast")
	lb, _ := s.NewLoader("mae")
	iters, _ := s.ItersPerEpoch("slowfast")
	for it := 0; it < iters; it++ {
		if _, _, err := la.Next(0, it); err != nil {
			t.Fatal(err)
		}
	}
	decodedAfterA := metric(t, s, "core.gop_frames_decoded")
	for it := 0; it < iters; it++ {
		if _, _, err := lb.Next(0, it); err != nil {
			t.Fatal(err)
		}
	}
	decodedByB := metric(t, s, "core.gop_frames_decoded") - decodedAfterA
	if metric(t, s, "core.objects_reused") == 0 {
		t.Fatal("no object reuse across tasks")
	}
	if decodedByB >= decodedAfterA {
		t.Fatalf("task B decoded %d frames vs task A's %d; sharing ineffective", decodedByB, decodedAfterA)
	}
}

func TestPrematerializationKicksIn(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 6)
	loader, _ := s.NewLoader("train")
	iters, _ := s.ItersPerEpoch("train")
	for e := 0; e < 2; e++ {
		for it := 0; it < iters; it++ {
			if _, _, err := loader.Next(e, it); err != nil {
				t.Fatal(err)
			}
			if e == 0 && it == 0 {
				// The first read is a demand miss that schedules the next
				// iterations; wait for the first of them instead of racing
				// the trainer against the pool.
				waitForBatch(t, s, iterationKey{"train", 0, 1})
			}
		}
	}
	if metric(t, s, "core.premat_hits") == 0 {
		t.Fatalf("no pre-materialization hits over %d iterations", 2*iters)
	}
	if metric(t, s, "sched.premat_runs") == 0 {
		t.Fatal("no pre-materialization tasks ran")
	}
}

// waitForBatch polls until key's batch object is in the store.
func waitForBatch(t *testing.T, s *Service, key iterationKey) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, err := s.peekBatch(key); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %v was never pre-materialized", key)
		}
		time.Sleep(time.Millisecond)
	}
}

// crashService opens an engine over a cache dir, for tests that "crash"
// one engine and restart another over the same directory.
func crashService(t *testing.T, dir string, ds *dataset.Dataset) *Service {
	t.Helper()
	s, err := New(Options{
		Tasks:       []*config.Task{miniTask(t, "train")},
		Dataset:     ds,
		ChunkEpochs: 2,
		TotalEpochs: 2,
		MemBudget:   64 << 20,
		CacheDir:    dir,
		Workers:     2,
		Coordinate:  true,
		Seed:        9,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ds := miniDataset(t, 3)
	s1 := crashService(t, dir, ds)
	loader, _ := s1.NewLoader("train")
	if _, _, err := loader.Next(0, 0); err != nil {
		t.Fatal(err)
	}
	persisted := metric(t, s1, "storage.disk_objects")
	s1.Close() // "crash"
	if persisted == 0 {
		t.Fatal("nothing persisted before crash")
	}
	// Restart over the same cache dir: recovered objects avoid decoding.
	s2 := crashService(t, dir, ds)
	defer s2.Close()
	if got := metric(t, s2, "storage.disk_objects"); got < persisted {
		t.Fatalf("recovered %d disk objects, had %d", got, persisted)
	}
	loader2, _ := s2.NewLoader("train")
	if _, _, err := loader2.Next(0, 0); err != nil {
		t.Fatalf("post-recovery read: %v", err)
	}
}

// TestPersistErrorServesFromMemory blocks every video's object
// directory in the cache dir with a regular file, so each frame object's
// Persist fails with "not a directory". Persistence is best-effort: the
// memory-tier copy must serve every batch, byte-identical to the oracle.
func TestPersistErrorServesFromMemory(t *testing.T) {
	dir := t.TempDir()
	ds := miniDataset(t, 3)
	if err := os.MkdirAll(filepath.Join(dir, "obj"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Videos {
		if err := os.WriteFile(filepath.Join(dir, "obj", v.Spec.Name), []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := crashService(t, dir, ds)
	defer s.Close()
	checkOracle(t, s, nil)
}

// TestCrashRecoveryRecomputesGarbledObjects garbles every persisted frame
// object between the crash and the restart — each .objz still inflates
// but one payload byte is flipped, and each .obj has a flipped byte — and
// checks that the restarted engine drops the bad objects and recomputes
// the first engine's batch instead of failing the read. One raw frame
// object is rewritten as an uncompressed .obj with a flipped pixel: its
// header still parses, so only its CRC-32C can catch it.
func TestCrashRecoveryRecomputesGarbledObjects(t *testing.T) {
	dir := t.TempDir()
	ds := miniDataset(t, 3)
	s1 := crashService(t, dir, ds)
	loader, _ := s1.NewLoader("train")
	b1, _, err := loader.Next(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeBatch(b1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close() // "crash"

	garbled, rawPixel := 0, 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		compressed := strings.HasSuffix(path, ".objz")
		if !compressed && !strings.HasSuffix(path, ".obj") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if compressed {
			if data, err = io.ReadAll(flate.NewReader(bytes.NewReader(data))); err != nil {
				return err
			}
		}
		if rawPixel == 0 && bytes.HasPrefix(data, []byte("RMFS")) { // "SFMR", little-endian
			data[len(data)-1] ^= 0xFF
			if _, err := frame.ParseFrameHeader(data); err != nil {
				return fmt.Errorf("%s: a flipped pixel broke the header: %w", path, err)
			}
			if _, _, err := frame.ViewFrame(data); err == nil {
				return fmt.Errorf("%s: a flipped pixel passed the CRC-32C", path)
			}
			if compressed {
				if err := os.Remove(path); err != nil {
					return err
				}
				path = strings.TrimSuffix(path, "z")
			}
			rawPixel++
			garbled++
			return os.WriteFile(path, data, 0o644)
		}
		data[len(data)/2] ^= 0xFF
		if compressed {
			var buf bytes.Buffer
			zw, _ := flate.NewWriter(&buf, flate.BestSpeed)
			zw.Write(data)
			zw.Close()
			data = buf.Bytes()
		}
		garbled++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if garbled == 0 {
		t.Fatal("no persisted objects to garble")
	}
	if rawPixel == 0 {
		t.Fatal("no persisted raw frame object to garble in its pixels")
	}

	s2 := crashService(t, dir, ds)
	defer s2.Close()
	loader2, _ := s2.NewLoader("train")
	b2, _, err := loader2.Next(0, 0)
	if err != nil {
		t.Fatalf("read over %d garbled objects: %v", garbled, err)
	}
	got, err := EncodeBatch(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("batch recomputed over garbled objects differs from the first engine's")
	}
}

func TestLoaderUnknownTask(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 2)
	if _, err := s.NewLoader("ghost"); err == nil {
		t.Fatal("NewLoader accepted unknown task")
	}
}

func TestSanitizeSig(t *testing.T) {
	in := "resize(8x8,bilinear)|crop(0,0,4x4)"
	out := sanitizeSig(in)
	if strings.ContainsAny(out, "/|(),") {
		t.Fatalf("sanitized signature still has separators: %q", out)
	}
}

func TestCacheMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	ds := miniDataset(t, 2)
	mk := func(seed int64) (*Service, error) {
		return New(Options{
			Tasks:       []*config.Task{miniTask(t, "train")},
			Dataset:     ds,
			ChunkEpochs: 1,
			TotalEpochs: 1,
			MemBudget:   64 << 20,
			CacheDir:    dir,
			Workers:     2,
			Coordinate:  true,
			Seed:        seed,
		})
	}
	s1, err := mk(1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	// Same configuration re-opens the cache fine.
	s2, err := mk(1)
	if err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	s2.Close()
	// A different seed means different plans: the cache must be refused.
	if _, err := mk(2); !errors.Is(err, ErrCacheMismatch) {
		t.Fatalf("mismatched config accepted over old cache: %v", err)
	}
}

// TestFingerprintStable pins the configuration fingerprint of one fixed
// setup: persisted manifests and fleet fingerprints compare it across
// builds, so a change to what it hashes must be deliberate.
func TestFingerprintStable(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 2)
	const want = "e872c7e29daaaaaf2f546fc863483d5b5388af70c6915e9e8359ad32147b9be6"
	if got := s.fingerprint(); got != want {
		t.Fatalf("fingerprint %s, want %s", got, want)
	}
}

func TestManifestSurvivesCorruption(t *testing.T) {
	dir := t.TempDir()
	ds := miniDataset(t, 2)
	opts := Options{
		Tasks:       []*config.Task{miniTask(t, "train")},
		Dataset:     ds,
		ChunkEpochs: 1,
		TotalEpochs: 1,
		MemBudget:   64 << 20,
		CacheDir:    dir,
		Workers:     2,
		Coordinate:  true,
		Seed:        1,
	}
	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if err := os.WriteFile(filepath.Join(dir, "sand-manifest.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(opts); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestMemoryPressureEngagesSJFAndEviction(t *testing.T) {
	// A deliberately tiny memory budget forces the store over its 75%
	// eviction threshold and the scheduler over its 80% SJF threshold
	// while pre-materialization runs.
	s, err := New(Options{
		Tasks:       []*config.Task{miniTask(t, "train")},
		Dataset:     miniDataset(t, 8),
		ChunkEpochs: 4,
		TotalEpochs: 4,
		MemBudget:   96 << 10, // 96 KiB: a handful of 24x24x3 objects
		Workers:     4,
		Lookahead:   8,
		Coordinate:  true,
		Seed:        13,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	loader, _ := s.NewLoader("train")
	iters, _ := s.ItersInEpoch("train", 0)
	for e := 0; e < 4; e++ {
		for it := 0; it < iters; it++ {
			if _, _, err := loader.Next(e, it); err != nil {
				t.Fatalf("epoch %d iter %d under memory pressure: %v", e, it, err)
			}
		}
	}
	if metric(t, s, "storage.evictions") == 0 {
		t.Fatal("tiny budget caused no evictions")
	}
	if b := metric(t, s, "storage.mem_bytes"); b > 96<<10 {
		t.Fatalf("memory tier exceeded budget: %d", b)
	}
	// The scheduler must have made at least some SJF decisions while the
	// store sat above 80% (timing-dependent; tolerate zero only if the
	// pool never saw premat work, which the lookahead guarantees it did).
	if metric(t, s, "sched.premat_runs") == 0 {
		t.Fatal("no pre-materialization ran")
	}
}

func TestTightStorageBudgetPrunesAndStillServes(t *testing.T) {
	// A small StorageBudget forces Algorithm 1 to prune most of the
	// frontier; batches must still materialize correctly (recomputed
	// from shallower objects).
	s, err := New(Options{
		Tasks:         []*config.Task{miniTask(t, "train")},
		Dataset:       miniDataset(t, 4),
		ChunkEpochs:   2,
		TotalEpochs:   2,
		MemBudget:     64 << 20,
		StorageBudget: 1 << 10, // 1 KiB: prune almost everything
		Workers:       2,
		Coordinate:    true,
		Seed:          14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pr := s.PruneResult()
	if !pr.Fits || pr.Collapses == 0 {
		t.Fatalf("tight budget did not prune: %+v", pr)
	}
	loader, _ := s.NewLoader("train")
	iters, _ := s.ItersInEpoch("train", 0)
	for e := 0; e < 2; e++ {
		for it := 0; it < iters; it++ {
			batch, _, err := loader.Next(e, it)
			if err != nil {
				t.Fatalf("pruned plan failed to serve: %v", err)
			}
			if batch.Len() == 0 {
				t.Fatal("empty batch under pruning")
			}
		}
	}
}

func TestItersInEpochValidation(t *testing.T) {
	s := newService(t, []*config.Task{miniTask(t, "train")}, 2)
	if _, err := s.ItersInEpoch("ghost", 0); err == nil {
		t.Fatal("accepted unknown task")
	}
	if _, err := s.ItersInEpoch("train", -1); err == nil {
		t.Fatal("accepted negative epoch")
	}
	if _, err := s.ItersInEpoch("train", 99); err == nil {
		t.Fatal("accepted epoch beyond training")
	}
}
