package core

import (
	"bytes"
	"errors"
	"testing"

	"sand/internal/codec"
	"sand/internal/config"
	"sand/internal/frame"
	"sand/internal/obs"
	"sand/internal/storage"
)

// TestFusionKeepsCachedResizeOutputs: the engine runs resize and the
// crop after it as one kernel only when the plan does not cache the
// resize output. The fixture samples every other frame of each video in
// both epochs of a chunk with uncoordinated random crops, so each resize
// node has two crop children and the planner caches it once the budget
// is too small for all the crops. Under such a budget every cached
// resize node must land in the store holding the full resize of its
// decoded frame, and an uncached one nothing; under a roomy budget,
// where only the crops are cached, nothing may be stored at depth 1.
func TestFusionKeepsCachedResizeOutputs(t *testing.T) {
	task := miniTask(t, "fuse")
	task.Sampling = config.Sampling{VideosPerBatch: 2, FramesPerVideo: 20, FrameStride: 2, SamplesPerVideo: 1}
	for _, tc := range []struct {
		name          string
		storageBudget int64
		resizeCached  bool
	}{
		{"resize-cached", 200 << 10, true},
		{"resize-not-cached", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Options{
				Tasks:         []*config.Task{task},
				Dataset:       miniDataset(t, 4),
				ChunkEpochs:   2,
				TotalEpochs:   2,
				MemBudget:     64 << 20,
				StorageBudget: tc.storageBudget,
				Workers:       1,
				Seed:          11,
				Obs:           obs.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkOracle(t, s)
			cached, absent := 0, 0
			for epoch := 0; epoch < s.opts.TotalEpochs; epoch++ {
				iters, err := s.ItersInEpoch(task.Tag, epoch)
				if err != nil {
					t.Fatal(err)
				}
				for it := 0; it < iters; it++ {
					samples, err := s.scheduleFor(iterationKey{task.Tag, epoch, it})
					if err != nil {
						t.Fatal(err)
					}
					for _, sm := range samples {
						ent, _ := s.snapshot().Find(sm.Video)
						for ci, chain := range sm.Chains {
							for pos, idx := range sm.FrameIndices {
								key := augKey(sm.Video, idx, cumulativeSig(chain.Ops, 1))
								obj, err := s.store.Get(key)
								if !cachedAt(sm.Leaves[ci][pos], len(chain.Ops), 1) {
									if !errors.Is(err, storage.ErrNotFound) {
										t.Fatalf("%s: uncached resize output stored (err %v)", key, err)
									}
									absent++
									continue
								}
								if err != nil {
									t.Fatalf("%s: cached resize output missing: %v", key, err)
								}
								dec := codec.NewDecoder(ent.Video, nil)
								src, err := dec.Frame(idx)
								if err != nil {
									t.Fatal(err)
								}
								full, err := chain.Ops[0].Op.Apply(&frame.Clip{Frames: []*frame.Frame{src}}, nil)
								if err != nil {
									t.Fatal(err)
								}
								want, err := frame.EncodeFrameFast(full.Frames[0])
								if err != nil {
									t.Fatal(err)
								}
								if !bytes.Equal(obj.Data, want) {
									t.Fatalf("%s: stored resize output differs from the full resize", key)
								}
								cached++
							}
						}
					}
				}
			}
			if absent == 0 {
				t.Fatal("every resize node cached: fusion was never eligible")
			}
			if tc.resizeCached && cached == 0 {
				t.Fatalf("budget %d cached no resize node (%d uncached frames)", tc.storageBudget, absent)
			}
			if !tc.resizeCached && cached != 0 {
				t.Fatalf("roomy budget cached %d resize nodes", cached)
			}
		})
	}
}
