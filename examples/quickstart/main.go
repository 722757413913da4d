// Quickstart: the Figure 6 experience end to end.
//
// It generates a miniature synthetic video dataset, configures a SAND
// task from the paper's YAML format, and consumes training batches
// through the four POSIX calls of Table 2 (open/read/getxattr/close) —
// the entire preprocessing pipeline in a handful of lines.
//
// The engine runs against a deliberately tight memory budget so three
// demo epochs exercise the whole adaptive story — eviction watermarks,
// GOP-cache shrinking, the EDF->SJF scheduler switch — and with
// -trace-out FILE the run exports it all as a Chrome trace
// (chrome://tracing or ui.perfetto.dev); see OBSERVABILITY.md.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"os"

	"sand/internal/config"
	"sand/internal/core"
	"sand/internal/dataset"
	"sand/internal/obs"
	"sand/internal/vfs"
)

const taskYAML = `
dataset:
  tag: "train"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 4
    frames_per_video: 8
    frame_stride: 2
    samples_per_video: 1
  augmentation:
  - name: "augment_resize"
    branch_type: "single"
    inputs: ["frame"]
    outputs: ["augmented_frame_0"]
    config:
    - resize:
        shape: [64, 64]
        interpolation: ["bilinear"]
  - name: "augment_crop"
    branch_type: "single"
    inputs: ["augmented_frame_0"]
    outputs: ["augmented_frame_1"]
    config:
    - random_crop:
        shape: [56, 56]
  - name: "random_flip"
    branch_type: "random"
    inputs: ["augmented_frame_1"]
    outputs: ["augmented_frame_2"]
    branches:
    - prob: 0.5
      config:
      - flip:
          flip_prob: 1.0
    - prob: 0.5
      config: None
`

// overlapYAML swaps the single-view tail for four crop views of one
// resized frame — the multi-view shape the overlap-aware superset reuse
// path (DESIGN.md §9) accelerates. The four 64x64 windows are distinct
// but overlap heavily, so every sample forms one reuse group whose
// bounding superset is computed once per source frame and sliced four
// ways. (Coordinated random crops would resolve to one shared window —
// identical chains the concrete-graph merge already unifies — so the
// demo uses fixed distinct windows to exercise the near-identical case.)
const overlapYAML = `
dataset:
  tag: "train"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 4
    frames_per_video: 8
    frame_stride: 2
    samples_per_video: 1
  augmentation:
  - name: "augment_resize"
    branch_type: "single"
    inputs: ["frame"]
    outputs: ["base"]
    config:
    - resize:
        shape: [80, 80]
        interpolation: ["bilinear"]
  - name: "views"
    branch_type: "multi"
    inputs: ["base"]
    outputs: ["v0", "v1", "v2", "v3"]
    branches:
    - prob: 1.0
      config:
      - crop:
          shape: [64, 64]
          x: 0
          y: 0
    - prob: 1.0
      config:
      - crop:
          shape: [64, 64]
          x: 16
          y: 16
    - prob: 1.0
      config:
      - crop:
          shape: [64, 64]
          x: 8
          y: 0
    - prob: 1.0
      config:
      - crop:
          shape: [64, 64]
          x: 0
          y: 12
  - name: "join"
    branch_type: "merge"
    inputs: ["v0", "v1", "v2", "v3"]
    outputs: ["merged"]
`

func main() {
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of the run to this file")
	overlap := flag.Bool("overlap", false, "run the four-view overlapping-crop task instead of the single-view demo")
	flag.Parse()

	reg := obs.New()
	if *traceOut != "" {
		reg.Trace().Enable()
	}

	// A miniature Kinetics-like corpus: 8 synthetic videos.
	ds, err := dataset.Kinetics400.Miniature(8, 96, 96, 60, 7)
	if err != nil {
		log.Fatal(err)
	}
	yaml := taskYAML
	// The four-view overlap batch is ~4x the single-view one
	// (4 x 64x64x3 views per frame), so it needs headroom the tight demo
	// budget doesn't have.
	memBudget := int64(1 << 20)
	if *overlap {
		yaml = overlapYAML
		memBudget = 8 << 20
	}
	task, err := config.LoadTask(yaml)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := core.New(core.Options{
		Tasks:       []*config.Task{task},
		Dataset:     ds,
		ChunkEpochs: 2,
		TotalEpochs: 3,
		Workers:     4,
		Coordinate:  true,
		Seed:        1,
		// A deliberately tight budget: the demo's working set crosses
		// the 75% eviction watermark and the scheduler's 80% SJF switch,
		// so a trace of this run shows the engine's whole adaptive story.
		MemBudget: memBudget,
		Obs:       reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// --- This is the whole preprocessing interface (Figure 6) ---
	fs := svc.FS()
	iters, _ := svc.ItersPerEpoch("train")
	digest := sha256.New()
	for epoch := 0; epoch < 3; epoch++ {
		for it := 0; it < iters; it++ {
			fd, err := fs.Open(vfs.BatchPath("train", epoch, it)) // open()
			if err != nil {
				log.Fatal(err)
			}
			data, err := fs.ReadAll(fd) // read()
			if err != nil {
				log.Fatal(err)
			}
			ts, _ := fs.Getxattr(fd, "user.sand.timestamps") // getxattr()
			labels, _ := fs.Getxattr(fd, "user.sand.labels")
			fs.Close(fd) // close()

			digest.Write(data)
			batch, err := core.DecodeBatch(data)
			if err != nil {
				log.Fatal(err)
			}
			w, h, c := batch.Clips[0].Geometry()
			fmt.Printf("epoch %d iter %d: %d clips of %d frames @ %dx%dx%d  labels=[%s]  pts=[%s]\n",
				epoch, it, batch.Len(), batch.Clips[0].Len(), w, h, c, labels, ts)
		}
	}
	// ------------------------------------------------------------

	// The digest covers every batch byte of the run; with a fixed seed it
	// is deterministic.
	fmt.Printf("batch digest: %x\n", digest.Sum(nil))
	hits, _ := reg.Query("core.reuse.superset_hits")
	misses, _ := reg.Query("core.reuse.superset_misses")
	fmt.Printf("reuse: superset_hits=%d superset_misses=%d\n", int64(hits), int64(misses))

	fmt.Println()
	if err := reg.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := reg.Trace().WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace: %d events -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
			reg.Trace().Len(), *traceOut)
	}
}
