package stream

import (
	"io"
	"testing"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/obs"
)

func testService(t testing.TB, videos, totalEpochs, chunkEpochs int) *core.Service {
	t.Helper()
	ds, err := dataset.Generate("stream-test", dataset.VideoSpec{
		W: 32, H: 32, C: 3, Frames: 24, FPS: 30, GOP: 8,
	}, videos, 17)
	if err != nil {
		t.Fatal(err)
	}
	task := &config.Task{
		Tag:         "live",
		Source:      config.SourceStreaming,
		DatasetPath: "/stream/in",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 3, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{{
			Name: "resize", Type: config.BranchSingle,
			Inputs: []string{"frame"}, Outputs: []string{"a"},
			Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{16, 16}}}},
		}},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	svc, err := core.New(core.Options{
		Tasks:       []*config.Task{task},
		Dataset:     ds,
		ChunkEpochs: chunkEpochs,
		TotalEpochs: totalEpochs,
		MemBudget:   64 << 20,
		Workers:     2,
		Coordinate:  true,
		Seed:        21,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func segmentSpec() dataset.VideoSpec {
	return dataset.VideoSpec{W: 32, H: 32, C: 3, Frames: 24, FPS: 30, GOP: 8, Seed: 500}
}

func TestLiveGeneratorSequenceAndEOF(t *testing.T) {
	g := &LiveGenerator{Spec: segmentSpec(), Prefix: "cam", MaxSegments: 3}
	names := map[string]bool{}
	for i := 0; i < 3; i++ {
		ent, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ent.Video == nil || ent.Video.FrameCount != 24 {
			t.Fatalf("segment %d malformed", i)
		}
		if names[ent.Spec.Name] {
			t.Fatalf("duplicate segment name %s", ent.Spec.Name)
		}
		names[ent.Spec.Name] = true
	}
	if _, err := g.Next(); err != io.EOF {
		t.Fatalf("expected EOF after MaxSegments, got %v", err)
	}
}

func TestLiveGeneratorDistinctContent(t *testing.T) {
	g := &LiveGenerator{Spec: segmentSpec(), MaxSegments: 2}
	a, _ := g.Next()
	b, _ := g.Next()
	if string(a.Video.Data) == string(b.Video.Data) {
		t.Fatal("consecutive segments have identical content")
	}
}

func TestIngestorValidation(t *testing.T) {
	if _, err := NewIngestor(nil, nil); err == nil {
		t.Fatal("accepted nil source/service")
	}
	svc := testService(t, 2, 2, 2)
	in, err := NewIngestor(&LiveGenerator{Spec: segmentSpec(), MaxSegments: 1}, svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.PullBatch(0); err == nil {
		t.Fatal("accepted zero batch size")
	}
}

func TestStreamedVideosJoinNextChunk(t *testing.T) {
	// Chunk 0 covers epochs 0-1 with 2 videos (1 iter/epoch). Two more
	// videos arrive during chunk 0; the chunk starting at epoch 2 must
	// include them (2 iters/epoch) and serve their content.
	svc := testService(t, 2, 4, 2)
	loader, err := svc.NewLoader("live")
	if err != nil {
		t.Fatal(err)
	}
	itersBefore, _ := svc.ItersPerEpoch("live")
	if itersBefore != 1 {
		t.Fatalf("initial iters/epoch = %d, want 1", itersBefore)
	}
	// Consume epoch 0 and stream new segments in.
	if _, _, err := loader.Next(0, 0); err != nil {
		t.Fatal(err)
	}
	in, _ := NewIngestor(&LiveGenerator{Spec: segmentSpec(), Prefix: "cam", MaxSegments: 2}, svc)
	n, err := in.PullBatch(10)
	if err != nil || n != 2 {
		t.Fatalf("PullBatch = %d, %v", n, err)
	}
	if in.Ingested() != 2 || in.Bytes() <= 0 {
		t.Fatalf("ingestor accounting: %d segments, %d bytes", in.Ingested(), in.Bytes())
	}
	if n, _ := svc.Obs().Query("core.streamed_videos"); n != 2 {
		t.Fatalf("service counted %v streamed videos", n)
	}
	// Finish chunk 0.
	if _, _, err := loader.Next(1, 0); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 plans a new chunk over 4 videos -> 2 iterations.
	seen := map[string]bool{}
	for it := 0; it < 2; it++ {
		batch, meta, err := loader.Next(2, it)
		if err != nil {
			t.Fatalf("epoch 2 iter %d: %v", it, err)
		}
		if batch.Len() != 2 {
			t.Fatalf("batch size %d", batch.Len())
		}
		for _, l := range meta.Labels {
			seen[l] = true
		}
	}
	itersAfter, _ := svc.ItersInEpoch("live", 2)
	if itersAfter != 2 {
		t.Fatalf("post-stream iters in epoch 2 = %d, want 2", itersAfter)
	}
	// Epoch 0's count is unchanged (history is immutable).
	if n, _ := svc.ItersInEpoch("live", 0); n != 1 {
		t.Fatalf("epoch 0 iters rewritten to %d", n)
	}
	if !seen["live"] {
		t.Fatalf("streamed segments never served; labels seen: %v", seen)
	}
	// A streamed video is addressable through the VFS like any other.
	fs := svc.FS()
	fd, err := fs.Open("/live/cam_00000.mp4")
	if err != nil {
		t.Fatalf("streamed video not in VFS: %v", err)
	}
	fs.Close(fd)
}

func TestExtendDatasetRejectsDuplicatesAndEmptyPayloads(t *testing.T) {
	svc := testService(t, 2, 2, 2)
	g := &LiveGenerator{Spec: segmentSpec(), MaxSegments: 1}
	ent, _ := g.Next()
	if err := svc.ExtendDataset([]dataset.Entry{*ent}); err != nil {
		t.Fatal(err)
	}
	if err := svc.ExtendDataset([]dataset.Entry{*ent}); err == nil {
		t.Fatal("accepted duplicate video name")
	}
	bad := dataset.Entry{Spec: dataset.VideoSpec{Name: "empty"}}
	if err := svc.ExtendDataset([]dataset.Entry{bad}); err == nil {
		t.Fatal("accepted entry without payload")
	}
	if err := svc.ExtendDataset(nil); err != nil {
		t.Fatal("empty extend should be a no-op")
	}
}

func TestPullBatchEOF(t *testing.T) {
	svc := testService(t, 2, 2, 2)
	in, _ := NewIngestor(&LiveGenerator{Spec: segmentSpec(), MaxSegments: 1}, svc)
	if n, err := in.PullBatch(5); err != nil || n != 1 {
		t.Fatalf("first pull = %d, %v", n, err)
	}
	if n, err := in.PullBatch(5); err != nil || n != 0 {
		t.Fatalf("post-EOF pull = %d, %v", n, err)
	}
}
