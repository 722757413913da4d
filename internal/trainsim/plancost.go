// Package trainsim reproduces the paper's end-to-end experiments by
// combining three ingredients:
//
//  1. the real planner (internal/graph): chunk plans, coordinated
//     randomization and Algorithm 1 pruning run unmodified over miniature
//     dataset metadata, producing SAND's actual work-reduction factors;
//  2. the calibrated hardware model (internal/gpusim): A100 step times,
//     preprocessing ratios, power draws;
//  3. the discrete-event kernel (internal/simclock): GPUs, vCPU pools and
//     WAN links with queueing, producing wall-clock times, utilizations
//     and energy.
//
// Each Pipeline variant encodes one preprocessing strategy from the
// paper's evaluation (see the Pipeline constants for per-variant §
// provenance); Run executes a Scenario in virtual time and reports
// wall-clock, utilization, stall and energy figures. A Scenario may also
// carry Hooks — an externally owned clock, per-iteration event
// callbacks, and a submit-time work-inflation factor — which is how the
// scenario harness (internal/scenario) injects faults into and observes
// a running simulation without perturbing its determinism.
package trainsim

import (
	"fmt"

	"sand/internal/config"
	"sand/internal/gpusim"
	"sand/internal/graph"
)

// PlanCosts captures what the real planner says about a scenario: how
// much preprocessing work the uncoordinated baseline performs per batch,
// and how much SAND performs per chunk after sharing and pruning.
// Costs are in the planner's abstract units; unitScale converts them to
// vCPU-seconds via the calibrated CPUPrepWork.
type PlanCosts struct {
	// Tasks is the number of concurrent tasks planned together.
	Tasks int
	// Videos is the miniature dataset size used for planning.
	Videos int
	// ChunkEpochs is k.
	ChunkEpochs int
	// BatchesPerTaskEpoch is the iteration count of one epoch.
	BatchesPerTaskEpoch int

	// BaselinePerBatch is the average per-batch preprocessing cost of the
	// uncoordinated on-demand plan (cost units).
	BaselinePerBatch float64
	// SandChunkMaterialize is the one-time cost of building the pruned
	// frontier for a whole chunk (cost units, all tasks).
	SandChunkMaterialize float64
	// SandChunkRecompute is the per-access recompute cost summed over the
	// chunk under the pruned frontier (cost units, all tasks).
	SandChunkRecompute float64

	// DecodeReduction is 1 - coordinated/uncoordinated decode ops.
	DecodeReduction float64
	// CropReduction is 1 - coordinated/uncoordinated random-crop ops.
	CropReduction float64
	// PruneFits reports whether the plan fit the storage budget.
	PruneFits bool
	// CachedBytes is the pruned frontier's footprint (planner bytes).
	CachedBytes int64
	// UnprunedBytes is the all-leaves footprint before pruning.
	UnprunedBytes int64
}

// workloadTask converts a calibrated workload into a SAND task config
// with the canonical action-recognition pipeline (resize to a working
// resolution, random-crop to the network input, random flip). All four
// paper workloads train at the same network input size (224x224 there,
// 56x56 in our scaled geometry), so multi-task plans share crop windows.
func workloadTask(w gpusim.Workload, tag string, videosPerBatch int) *config.Task {
	const crop = 56
	// Scale the augmentation geometry down with the miniature videos; the
	// planner only needs relative sizes.
	return &config.Task{
		Tag:         tag,
		Source:      config.SourceFile,
		DatasetPath: "/data/" + w.Name,
		Sampling: config.Sampling{
			VideosPerBatch:  videosPerBatch,
			FramesPerVideo:  w.FramesPerClip,
			FrameStride:     w.FrameStride,
			SamplesPerVideo: 1,
		},
		Stages: []config.Stage{
			{
				Name: "resize", Type: config.BranchSingle,
				Inputs: []string{"frame"}, Outputs: []string{"a0"},
				Ops: []config.OpSpec{{Op: "resize", Params: map[string]any{"shape": []any{64, 80}}}},
			},
			{
				Name: "crop", Type: config.BranchSingle,
				Inputs: []string{"a0"}, Outputs: []string{"a1"},
				Ops: []config.OpSpec{{Op: "random_crop", Params: map[string]any{"shape": []any{crop, crop}}}},
			},
			{
				Name: "rand", Type: config.BranchRandom,
				Inputs: []string{"a1"}, Outputs: []string{"a2"},
				Branches: []config.SubBranch{
					{Prob: 0.5, Ops: []config.OpSpec{{Op: "flip", Params: map[string]any{"flip_prob": 1.0}}}},
					{Prob: 0.5},
				},
			},
		},
	}
}

// miniatureMetas builds planner metadata for n videos shaped like the
// workload's dataset (scaled geometry, real GOP structure).
func miniatureMetas(w gpusim.Workload, n int) []graph.VideoMeta {
	metas := make([]graph.VideoMeta, n)
	for i := range metas {
		metas[i] = graph.VideoMeta{
			Name:   fmt.Sprintf("%s-v%04d", w.Name, i),
			Frames: 300,
			W:      128, H: 72, C: 3,
			GOP:          30,
			EncodedBytes: 200_000,
		}
	}
	return metas
}

// DerivePlanCosts runs the real planner for the given workloads sharing
// one dataset and returns the cost structure the simulator uses.
// budgetFrac is the storage budget as a fraction of the unpruned
// all-leaves footprint (1.0 or more = no pruning pressure).
func DerivePlanCosts(workloads []gpusim.Workload, videos, chunkEpochs int, budgetFrac float64, seed int64) (*PlanCosts, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("trainsim: need at least one workload")
	}
	const videosPerBatch = 4
	specs := make([]graph.TaskSpec, len(workloads))
	for i, w := range workloads {
		specs[i] = graph.TaskSpec{Task: workloadTask(w, fmt.Sprintf("%s-%d", w.Name, i), videosPerBatch)}
		if err := specs[i].Task.Validate(); err != nil {
			return nil, err
		}
	}
	metas := miniatureMetas(workloads[0], videos)

	// Calibrate the planner's cost model so its decode share matches the
	// workload's measured DecodeFrac: probe with decode cost 1, read the
	// decode/aug split (both linear in the per-pixel rates), and solve
	// for the decode rate that yields the target share.
	cm := graph.DefaultCostModel()
	cm.DecodePerPixel = 1
	probe, err := graph.BuildChunkPlan(specs, metas, graph.PlanParams{
		Epochs: chunkEpochs, Coordinate: false, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	d1, aug := probe.CostBreakdown()
	frac := workloads[0].DecodeFrac
	if d1 > 0 && aug > 0 {
		cm.DecodePerPixel = frac / (1 - frac) * aug / d1
	}

	// Slack 0: within one chunk every epoch draws from the same pool
	// window, the paper's "decode once, cache for exactly k epochs";
	// temporal randomness lives in the per-chunk pool placement and the
	// spatial randomness in per-sample sub-crops.
	coord, err := graph.BuildChunkPlan(specs, metas, graph.PlanParams{
		Epochs: chunkEpochs, Coordinate: true, Seed: seed,
		CostModel: cm,
	})
	if err != nil {
		return nil, err
	}
	uncoord, err := graph.BuildChunkPlan(specs, metas, graph.PlanParams{
		Epochs: chunkEpochs, Coordinate: false, Seed: seed,
		CostModel: cm,
	})
	if err != nil {
		return nil, err
	}

	pc := &PlanCosts{
		Tasks:               len(workloads),
		Videos:              videos,
		ChunkEpochs:         chunkEpochs,
		BatchesPerTaskEpoch: (videos + videosPerBatch - 1) / videosPerBatch,
	}

	// Baseline cost: the uncoordinated plan caches nothing, so every
	// sample pays its full pipeline per access. RecomputeCost with the
	// frontier collapsed to the roots gives exactly that.
	for _, g := range uncoord.Graphs {
		collapseToRoot(g)
	}
	baselineTotal := uncoord.TotalRecomputeCost()
	baselineBatches := float64(pc.BatchesPerTaskEpoch * chunkEpochs * len(workloads))
	pc.BaselinePerBatch = baselineTotal / baselineBatches

	// SAND cost: prune the coordinated plan to the budget, then read off
	// the one-time materialization and residual recompute.
	pc.UnprunedBytes = coord.TotalCachedBytes()
	budget := int64(float64(pc.UnprunedBytes) * budgetFrac)
	res, err := graph.PrunePlan(coord, budget)
	if err != nil {
		return nil, err
	}
	pc.PruneFits = res.Fits
	pc.CachedBytes = res.FinalBytes
	for _, g := range coord.SortedGraphs() {
		pc.SandChunkMaterialize += g.MaterializationCost()
		pc.SandChunkRecompute += g.RecomputeCost()
	}

	// Operation-count reductions (Figure 16). Executions are measured in
	// cost units so decode amplification (frames decoded only to satisfy
	// GOP dependencies) counts the way the paper counts it: SAND executes
	// each shared node once, while the uncoordinated baseline re-executes
	// per use.
	coordDec, coordAug := coord.CostBreakdownOnce()
	uncoordDec, uncoordAug := uncoord.CostBreakdown()
	if uncoordDec > 0 {
		pc.DecodeReduction = 1 - coordDec/uncoordDec
	}
	if uncoordAug > 0 {
		pc.CropReduction = 1 - coordAug/uncoordAug
	}
	return pc, nil
}

// collapseToRoot moves a graph's frontier to its root (nothing cached) —
// the on-demand baseline's state.
func collapseToRoot(g *graph.ConcreteGraph) {
	var uncache func(n *graph.Node)
	uncache = func(n *graph.Node) {
		n.Cached = false
		for _, c := range n.Children {
			uncache(c)
		}
	}
	uncache(g.Root)
	g.Root.Cached = true
}

// UnitScale converts planner cost units to vCPU-seconds so that the
// uncoordinated on-demand batch costs exactly the calibrated CPUPrepWork.
func (pc *PlanCosts) UnitScale(w gpusim.Workload) float64 {
	if pc.BaselinePerBatch == 0 {
		return 0
	}
	return w.CPUPrepWork() / pc.BaselinePerBatch
}

// SandChunkWork returns SAND's total vCPU-seconds per chunk (one-time
// materialization plus residual recompute across the chunk's accesses).
func (pc *PlanCosts) SandChunkWork(w gpusim.Workload) float64 {
	return (pc.SandChunkMaterialize + pc.SandChunkRecompute) * pc.UnitScale(w)
}

// SandPerBatchWork returns SAND's average vCPU-seconds per batch.
func (pc *PlanCosts) SandPerBatchWork(w gpusim.Workload) float64 {
	batches := float64(pc.BatchesPerTaskEpoch * pc.ChunkEpochs * pc.Tasks)
	return pc.SandChunkWork(w) / batches
}

// WorkloadTaskForTests exposes the calibrated workload-to-task mapping so
// the benchmark harness and tests can plan with the same task configs the
// simulator uses.
func WorkloadTaskForTests(w gpusim.Workload, tag string, videosPerBatch int) *config.Task {
	return workloadTask(w, tag, videosPerBatch)
}
