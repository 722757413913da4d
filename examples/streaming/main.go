// Streaming ingest (the "input_source: streaming" configuration, §5.1):
// a live source produces video segments while training runs; segments
// join the dataset at the next chunk boundary, growing each epoch — the
// online-learning scenario the paper motivates with live-video ingest.
package main

import (
	"fmt"
	"log"
	"os"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/metrics"
	"sand/internal/stream"
)

func main() {
	// Bootstrap corpus: 4 archived videos.
	ds, err := dataset.Generate("bootstrap", dataset.VideoSpec{
		W: 64, H: 64, C: 3, Frames: 45, FPS: 30, GOP: 15,
	}, 4, 11)
	if err != nil {
		log.Fatal(err)
	}
	task := &config.Task{
		Tag:         "online",
		Source:      config.SourceStreaming,
		DatasetPath: "/stream/live",
		Sampling:    config.Sampling{VideosPerBatch: 2, FramesPerVideo: 4, FrameStride: 2, SamplesPerVideo: 1},
		Stages: []config.Stage{{
			Name: "resize", Type: config.BranchSingle,
			Inputs: []string{"frame"}, Outputs: []string{"a"},
			Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{48, 48}}}},
		}},
	}
	if err := task.Validate(); err != nil {
		log.Fatal(err)
	}
	const epochs, chunk = 6, 2
	svc, err := core.New(core.Options{
		Tasks:       []*config.Task{task},
		Dataset:     ds,
		ChunkEpochs: chunk,
		TotalEpochs: epochs,
		Workers:     4,
		Coordinate:  true,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// The live feed: a camera delivering 45-frame segments.
	camera := &stream.LiveGenerator{
		Spec:   dataset.VideoSpec{W: 64, H: 64, C: 3, Frames: 45, FPS: 30, GOP: 15, Seed: 900},
		Prefix: "cam",
	}
	ingestor, err := stream.NewIngestor(camera, svc)
	if err != nil {
		log.Fatal(err)
	}
	loader, err := svc.NewLoader("online")
	if err != nil {
		log.Fatal(err)
	}
	for epoch := 0; epoch < epochs; epoch++ {
		iters, _ := svc.ItersInEpoch("online", epoch)
		clips := 0
		for it := 0; it < iters; it++ {
			batch, _, err := loader.Next(epoch, it)
			if err != nil {
				log.Fatal(err)
			}
			clips += batch.Len()
		}
		fmt.Printf("epoch %d: %d iterations, %d clips (dataset grows at chunk boundaries)\n",
			epoch, iters, clips)
		// Two new segments arrive while the epoch trains.
		if epoch < epochs-1 {
			if _, err := ingestor.PullBatch(2); err != nil {
				log.Fatal(err)
			}
		}
	}
	reg := svc.Obs()
	decoded, _ := reg.Query("core.gop_frames_decoded")
	reused, _ := reg.Query("core.objects_reused")
	fmt.Printf("\ningested %d segments (%s); engine decoded %d frames, reused %d objects\n",
		ingestor.Ingested(), metrics.Bytes(float64(ingestor.Bytes())), int64(decoded), int64(reused))
	fmt.Println()
	if err := reg.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
