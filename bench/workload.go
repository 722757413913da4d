package main

import (
	"fmt"
	"runtime"

	"sand/internal/config"
)

// taskTag is the tag of the task the trainers read.
const taskTag = "train"

// mode is how a workload's timed window is laid out.
type mode int

const (
	// modeCold: repeated fresh-boot reps, each reading epoch 0 once.
	modeCold mode = iota
	// modeEpochs: one boot, epoch 0 as warm-up, epochs 1.. timed.
	modeEpochs
	// modeReplay: one boot, epoch 0 read as warm-up, then re-read.
	modeReplay
)

// workload is one set of inputs the benchmark runs. Every field is
// fixed here so that a metric from one commit is comparable with the
// same metric from another; only the seed varies between runs.
type workload struct {
	Name string
	Why  string
	Mode mode

	Corpus corpusSpec
	// UseVideos, when non-zero, serves only the corpus's first videos.
	UseVideos int

	VideosPerBatch, FramesPerVideo, Stride, SamplesPerVideo int
	Resize, Crop                                            int
	// HelperCrop, when non-zero, registers a second task that is never
	// read: its wider random crop widens the coordinated crop window, so
	// the read task's crops become distinct overlapping views of one
	// superset instead of one shared window (the superset-reuse shape;
	// see cmd/sandbench/reuse.go).
	HelperCrop int

	Nodes         int
	MemBudget     int64
	StorageBudget int64
	SpillDir      bool // give the engine a CacheDir (disk tier)
	TotalEpochs   int
	WarmupPasses  int // reads of epoch 0 before the timed window

	// check asserts that the workload's mechanism engaged during the
	// timed window; a run that measured something else must fail.
	check func(m *measured) error
}

// trainers is the closed-loop client count: no more than the cores.
func trainers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// engineWorkers is every node's preprocessing pool size.
const engineWorkers = 2

// setupReps is how many times a warm run sets up (boot, mount, warm-up
// reads); setup_s is the median over them.
const setupReps = 3

func (w *workload) tasks() ([]*config.Task, error) {
	mk := func(tag string, s config.Sampling, crop int) *config.Task {
		return &config.Task{
			Tag: tag, Source: config.SourceFile, DatasetPath: "/data/bench", Sampling: s,
			Stages: []config.Stage{{
				Name: "aug", Type: config.BranchSingle, Inputs: []string{"frame"}, Outputs: []string{"out"},
				Ops: []config.OpSpec{
					{Op: "resize", Params: map[string]any{"shape": []any{w.Resize, w.Resize}}},
					{Op: "random_crop", Params: map[string]any{"shape": []any{crop, crop}}},
				},
			}},
		}
	}
	out := []*config.Task{mk(taskTag, config.Sampling{
		VideosPerBatch: w.VideosPerBatch, FramesPerVideo: w.FramesPerVideo,
		FrameStride: w.Stride, SamplesPerVideo: w.SamplesPerVideo,
	}, w.Crop)}
	if w.HelperCrop > 0 {
		// The tag sorts after taskTag: the chunk planner anchors the
		// window geometry on the last task.
		out = append(out, mk("zwin", config.Sampling{VideosPerBatch: 1, FramesPerVideo: 1, FrameStride: 1, SamplesPerVideo: 1}, w.HelperCrop))
	}
	for _, t := range out {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *workload) videos() int {
	if w.UseVideos > 0 && w.UseVideos < w.Corpus.Videos {
		return w.UseVideos
	}
	return w.Corpus.Videos
}

func (w *workload) itersPerEpoch() int {
	return (w.videos() + w.VideosPerBatch - 1) / w.VideosPerBatch
}

// framesPerBatch is the source frames one batch's clips are made of.
func (w *workload) framesPerBatch() int {
	return w.VideosPerBatch * w.SamplesPerVideo * w.FramesPerVideo
}

// workloads returns the four workloads. quick shrinks corpus, frames and
// budgets for the self-test smoke; its numbers mean nothing.
func workloads(quick bool) []*workload {
	corpus := corpusSpec{Videos: 24, W: 192, H: 108, Frames: 120, GOP: 30}
	resize, cropBig, cropSmall := 128, 112, 96
	epochs := 64
	pressureBudget := int64(pressureMemBudget)
	replayVideos := corpus.Videos / 2 // halves wire_replay's set-up; six paths still spread over two nodes
	if quick {
		replayVideos = 0
		corpus = corpusSpec{Videos: 8, W: 96, H: 54, Frames: 48, GOP: 12}
		resize, cropBig, cropSmall = 64, 56, 48
		epochs = 16
		// Evictions begin well inside the 100-batch floor; at 6 MiB and
		// below reads fail now and then (see pressureMemBudget).
		pressureBudget = 10 << 20
	}
	return []*workload{
		{
			Name: "cold_decode", Mode: modeCold,
			Why:    "fresh engine per epoch: every batch pays TVC decode with roll-forward; store and dataplane idle",
			Corpus: corpus, VideosPerBatch: 2, FramesPerVideo: 8, Stride: 4, SamplesPerVideo: 1,
			Resize: resize, Crop: cropBig,
			Nodes: 1, MemBudget: 256 << 20, TotalEpochs: 1,
			check: func(m *measured) error {
				return need(m.win.get("core.gop_frames_decoded") > 0 && m.win.get("storage.spills") == 0,
					"cold_decode wants frames_decoded>0 and spills==0")
			},
		},
		{
			Name: "warm_reuse", Mode: modeEpochs,
			Why:    "working set fits: decode is done, store hits, superset reuse, augment and serialize do the work",
			Corpus: corpus, VideosPerBatch: 1, FramesPerVideo: 8, Stride: 2, SamplesPerVideo: 3,
			Resize: resize, Crop: cropSmall, HelperCrop: cropBig,
			Nodes: 1, MemBudget: 2 << 30, TotalEpochs: epochs, WarmupPasses: 1,
			check: func(m *measured) error {
				return need(m.win.get("core.reuse.superset_hits") > 0 && m.win.get("storage.evictions") == 0 &&
					m.win.get("core.gop_frames_decoded") < 0.05*m.warmupFramesDecoded,
					"warm_reuse wants superset_hits>0, evictions==0 and timed decode <5% of warm-up's")
			},
		},
		{
			Name: "wire_replay", Mode: modeReplay,
			Why:    "two nodes re-serve pinned batches: engine idle, time is routing, framing, writev, scatter-read, DecodeBatch",
			Corpus: corpus, UseVideos: replayVideos, VideosPerBatch: 2, FramesPerVideo: 16, Stride: 2, SamplesPerVideo: 1,
			Resize: resize, Crop: cropBig,
			Nodes: 2, MemBudget: 1 << 30, TotalEpochs: 1, WarmupPasses: 2,
			check: func(m *measured) error {
				zc := ratio(m.win.get("viewserver.dataplane.zerocopy.hit"), m.win.get("viewserver.dataplane.copy.fallback"))
				return need(m.win.get("core.demand_misses") == 0 && zc >= 0.9 && m.nodesServing == 2,
					"wire_replay wants demand_misses==0, zerocopy_ratio>=0.9 and both nodes serving")
			},
		},
		{
			Name: "mem_pressure", Mode: modeEpochs,
			Why:    "memory tier smaller than what the epochs produce: eviction passes, disk tier and SJF scheduling on warm reads",
			Corpus: corpus, VideosPerBatch: 1, FramesPerVideo: 8, Stride: 2, SamplesPerVideo: 3,
			Resize: resize, Crop: cropSmall,
			Nodes: 1, MemBudget: pressureBudget, StorageBudget: 2 << 30, SpillDir: true,
			TotalEpochs: epochs, WarmupPasses: 1,
			check: func(m *measured) error {
				return need(m.win.get("storage.evictions") > 0 && m.spillsTotal > 0,
					"mem_pressure wants evictions>0 and spills>0")
			},
		},
	}
}

// pressureMemBudget is mem_pressure's memory tier: twice the largest
// budget (16 MiB) at which the engine still fails reads with "batch
// vanished after materialization". README.md has the scan and the reason
// promotions are reported but not asserted.
const pressureMemBudget = 32 << 20

func findWorkload(name string, quick bool) (*workload, error) {
	for _, w := range workloads(quick) {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func need(ok bool, want string) error {
	if ok {
		return nil
	}
	return fmt.Errorf("mechanism not engaged: %s", want)
}
