package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sand/internal/augment"
	"sand/internal/codec"
	"sand/internal/config"
	"sand/internal/frame"
	"sand/internal/graph"
	"sand/internal/obs"
)

// TestApplyOpsRangeOwned runs applyOpsRange directly on one frame read
// back through frame.ViewFrame, as loadBestCached reads a stored object.
// With owned false the frame is a view of raw stored bytes (the memory
// tier's encoding), so those bytes stand in for a shared object that must
// come back unchanged, even behind an identity op that passes the frame
// through; with owned true it is a fresh copy decompressed from a
// compressed encoding. Either way the input must be unchanged and the
// result must equal Pipeline.Apply on a copy.
func TestApplyOpsRangeOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	src := frame.New(48, 36, 3)
	rng.Read(src.Pix)
	src.Index, src.PTS = 9, 300
	for _, tc := range []struct {
		name string
		ops  augment.Pipeline
	}{
		{"identity-hflip", augment.Pipeline{&augment.Rotate90{Turns: 0}, &augment.HFlip{Prob: 1}}},
		{"normalize", augment.Pipeline{&augment.Normalize{Mean: 100}}},
		{"crop", augment.Pipeline{&augment.Crop{X: 3, Y: 5, W: 20, H: 12}}},
		{"resize-crop", augment.Pipeline{&augment.Resize{W: 40, H: 30}, &augment.Crop{X: 4, Y: 2, W: 24, H: 20}}},
	} {
		for _, owned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/owned=%v", tc.name, owned), func(t *testing.T) {
				want, err := tc.ops.Apply(&frame.Clip{Frames: []*frame.Frame{src.Clone()}}, nil)
				if err != nil {
					t.Fatal(err)
				}
				chain := &graph.ResolvedChain{}
				for _, op := range tc.ops {
					chain.Ops = append(chain.Ops, graph.ResolvedOp{Sig: op.Signature(), Op: op})
				}
				encode := frame.EncodeFrameFast
				if owned {
					encode = frame.EncodeFrame
				}
				stored, err := encode(src)
				if err != nil {
					t.Fatal(err)
				}
				kept := bytes.Clone(stored)
				in, gotOwned, err := frame.ViewFrame(stored)
				if err != nil {
					t.Fatal(err)
				}
				if gotOwned != owned {
					t.Fatalf("ViewFrame returned owned %v, want %v", gotOwned, owned)
				}
				// No plan leaves: nothing is cached, so the store is never
				// touched and the resize-crop pair fuses.
				sm := &graph.Sample{Video: "v", FrameIndices: []int{src.Index}, Chains: []*graph.ResolvedChain{chain}}
				got, err := (&Service{}).applyOpsRange(sm, 0, chain, in, 0, len(chain.Ops), src.Index, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !in.Equal(src) {
					t.Error("applyOpsRange changed its input frame")
				}
				if !bytes.Equal(stored, kept) {
					t.Error("applyOpsRange changed the stored bytes its input was read from")
				}
				w := want.Frames[0]
				if !got.Equal(w) || got.Index != w.Index || got.PTS != w.PTS {
					t.Errorf("got %dx%d index %d pts %d, want %dx%d index %d pts %d (or pixels differ)",
						got.W, got.H, got.Index, got.PTS, w.W, w.H, w.Index, w.PTS)
				}
			})
		}
	}
}

// TestColdSampleDecodesEachGOPPrefixOnce reads one sample on a cold
// engine whose other workers are idle: the sample's frames reach the GOP
// cache in order, so each GOP rolls forward once, from its keyframe to
// the sample's last frame in it, and decodes nothing twice.
func TestColdSampleDecodesEachGOPPrefixOnce(t *testing.T) {
	task := miniTask(t, "train")
	task.Sampling = config.Sampling{VideosPerBatch: 1, FramesPerVideo: 8, FrameStride: 2, SamplesPerVideo: 1}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Tasks:         []*config.Task{task},
		Dataset:       miniDataset(t, 2),
		ChunkEpochs:   1,
		TotalEpochs:   1,
		StorageBudget: 1, // nothing cached in the store: every frame decodes
		MemBudget:     64 << 20,
		Workers:       8,
		Seed:          5,
		Obs:           obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	samples, err := s.scheduleFor(iterationKey{"train", 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sm := samples[0]
	ent, ok := s.snapshot().Find(sm.Video)
	if !ok {
		t.Fatalf("video %q not in dataset", sm.Video)
	}
	deepest := map[int]int{} // keyframe -> highest requested index
	for _, idx := range sm.FrameIndices {
		k, err := ent.Video.KeyframeBefore(idx)
		if err != nil {
			t.Fatal(err)
		}
		deepest[k] = max(deepest[k], idx)
	}
	var want int64
	for k, idx := range deepest {
		want += int64(idx - k + 1)
	}
	if _, err := s.materializeSampleClip(sm, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, s, "core.gop_frames_decoded"); got != want {
		t.Fatalf("decoded %d frames for frames %v, want the roll-forward minimum %d (GOPs %v)",
			got, sm.FrameIndices, want, deepest)
	}
}

// TestStoredViewsAreNeverWritten: two coordinated tasks run one pipeline,
// flip (always) then normalize, and both ops can write their input in
// place. The store holds every decoded frame as a raw object and the
// plan caches nothing, so every chain frame starts from a read-only view
// of a stored object, and each object is loaded by one sample of each
// task. Both tasks' batches must equal the oracle's, and every object
// must still hold the bytes that were stored.
func TestStoredViewsAreNeverWritten(t *testing.T) {
	task := func(tag string) *config.Task {
		task := miniTask(t, tag)
		task.Stages = []config.Stage{
			{Name: "flip", Type: config.BranchSingle, Inputs: []string{"frame"}, Outputs: []string{"a0"},
				Ops: []config.OpSpec{{Op: "flip", Params: map[string]any{"flip_prob": 1.0}}}},
			{Name: "norm", Type: config.BranchSingle, Inputs: []string{"a0"}, Outputs: []string{"a1"},
				Ops: []config.OpSpec{{Op: "normalize", Params: map[string]any{"mean": 100}}}},
		}
		if err := task.Validate(); err != nil {
			t.Fatal(err)
		}
		return task
	}
	s, err := New(Options{
		Tasks:         []*config.Task{task("a"), task("b")},
		Dataset:       miniDataset(t, 3),
		ChunkEpochs:   1,
		TotalEpochs:   1,
		StorageBudget: 1, // the plan caches nothing: only the objects below
		MemBudget:     64 << 20,
		Workers:       2,
		Coordinate:    true,
		Seed:          5,
		Obs:           obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stored := map[string][]byte{}
	for _, e := range s.snapshot().Videos {
		dec := codec.NewDecoder(e.Video, nil)
		for i := 0; i < e.Video.FrameCount; i++ {
			f, err := dec.Frame(i)
			if err != nil {
				t.Fatal(err)
			}
			key := frameKey(e.Spec.Name, i)
			if err := s.storeFrame(key, f, 0); err != nil {
				t.Fatal(err)
			}
			obj, err := s.store.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			stored[key] = bytes.Clone(obj.Data)
		}
	}
	iters, err := s.ItersInEpoch("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	var served int64
	for it := 0; it < iters; it++ {
		var first []*graph.Sample
		for _, tag := range []string{"a", "b"} {
			key := iterationKey{tag, 0, it}
			samples, err := s.scheduleFor(key)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = samples
			} else if !sameFrames(first, samples) {
				t.Fatalf("iteration %d: the tasks' samples load different objects", it)
			}
			got, err := s.ensureBatch(key)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleBatch(s, key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: engine batch differs from the oracle's", key)
			}
			for _, sm := range samples {
				served += int64(len(sm.FrameIndices) * len(sm.Chains))
			}
		}
	}
	if got := metric(t, s, "core.objects_reused"); got < served {
		t.Fatalf("%d chain frames started from a stored object, want all %d", got, served)
	}
	for key, want := range stored {
		obj, err := s.store.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(obj.Data, want) {
			t.Fatalf("%s: a read wrote the stored object's bytes", key)
		}
	}
}

// sameFrames reports whether two schedules name the same source frames
// of the same videos, sample by sample.
func sameFrames(a, b []*graph.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Video != b[i].Video || !slices.Equal(a[i].FrameIndices, b[i].FrameIndices) {
			return false
		}
	}
	return true
}

// TestBudgetBelowOneBatchServesOracleBytes: under a memory budget smaller
// than any batch, and than a decoded frame, every read still returns the
// oracle's bytes. Batches are served from their build unstored, frame
// objects that do not fit are skipped, and both are counted in
// core.unstored_objects.
func TestBudgetBelowOneBatchServesOracleBytes(t *testing.T) {
	const budget = 4 << 10
	s, err := New(Options{
		Tasks:       []*config.Task{miniTask(t, "train")},
		Dataset:     miniDataset(t, 3),
		ChunkEpochs: 2,
		TotalEpochs: 2,
		MemBudget:   budget,
		Workers:     2,
		Coordinate:  true,
		Seed:        5,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batches := int64(0)
	for epoch := 0; epoch < s.opts.TotalEpochs; epoch++ {
		iters, err := s.ItersInEpoch("train", epoch)
		if err != nil {
			t.Fatal(err)
		}
		for it := 0; it < iters; it++ {
			key := iterationKey{"train", epoch, it}
			got, err := s.ensureBatch(key)
			if err != nil {
				t.Fatalf("%v: %v", key, err)
			}
			want, err := oracleBatch(s, key)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) <= budget {
				t.Fatalf("%v: a %d-byte batch fits the %d-byte budget", key, len(want), budget)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: engine batch differs from the oracle's", key)
			}
			batches++
		}
	}
	if got := metric(t, s, "core.unstored_objects"); got < batches {
		t.Fatalf("core.unstored_objects = %d, want at least one per batch (%d)", got, batches)
	}
	if keys := s.store.Keys("/batch/"); len(keys) != 0 {
		t.Fatalf("the store holds batches larger than its budget: %v", keys)
	}
}
