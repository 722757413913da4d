package graph

import (
	"fmt"
	"math/rand"
	"sort"

	"sand/internal/augment"
	"sand/internal/config"
)

// VideoMeta is the planner's view of one source video. Planning operates
// on metadata only, so the simulator can plan over datasets far larger
// than memory.
type VideoMeta struct {
	Name    string
	Frames  int
	W, H, C int
	GOP     int
	// EncodedBytes is the compressed container size.
	EncodedBytes int64
}

// CostModel converts operations into abstract work units (calibrated to
// nanoseconds of a single vCPU by the gpusim package). The planner, the
// pruner and the simulator share one model so their decisions agree.
type CostModel struct {
	// DecodePerPixel is the cost of reconstructing one pixel during video
	// decoding.
	DecodePerPixel float64
	// OpPerPixel maps an augmentation op name to per-output-pixel cost.
	OpPerPixel map[string]float64
	// DefaultOpPerPixel is used for ops absent from OpPerPixel.
	DefaultOpPerPixel float64
}

// DefaultCostModel returns per-pixel costs roughly proportional to the
// measured costs of the real Go implementations (decode dominates, resize
// is the most expensive augmentation), which is also the paper's measured
// cost ordering.
func DefaultCostModel() *CostModel {
	return &CostModel{
		DecodePerPixel: 8.0,
		OpPerPixel: map[string]float64{
			"resize":          4.0,
			"crop":            0.5,
			"center_crop":     0.5,
			"hflip":           0.8,
			"vflip":           0.5,
			"rotate90":        1.0,
			"resolved_jitter": 1.2,
			"color_jitter":    1.2,
			"grayscale":       1.0,
			"normalize":       1.5,
			"inv_sample":      0.1,
		},
		DefaultOpPerPixel: 1.0,
	}
}

// OpCost returns the cost of producing outPixels of output with the named
// op.
func (m *CostModel) OpCost(opName string, outPixels int64) float64 {
	c, ok := m.OpPerPixel[opName]
	if !ok {
		c = m.DefaultOpPerPixel
	}
	return c * float64(outPixels)
}

// DecodeCost returns the cost of decoding n frames of the given geometry.
func (m *CostModel) DecodeCost(meta VideoMeta, n int) float64 {
	return m.DecodePerPixel * float64(meta.W) * float64(meta.H) * float64(meta.C) * float64(n)
}

// NodeKind labels concrete graph nodes.
type NodeKind int

const (
	// KindVideo is the root: the encoded source video.
	KindVideo NodeKind = iota
	// KindFrame is one decoded frame.
	KindFrame
	// KindAug is one augmented frame at some pipeline prefix.
	KindAug
)

func (k NodeKind) String() string {
	switch k {
	case KindVideo:
		return "video"
	case KindFrame:
		return "frame"
	case KindAug:
		return "aug"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one physical object in the concrete object dependency graph.
// The per-video graph is a tree: every node has one parent (its pipeline
// predecessor); sharing appears as Uses > 1.
type Node struct {
	Kind     NodeKind
	Video    string
	FrameIdx int    // source frame index (Frame/Aug nodes)
	Sig      string // cumulative op-signature prefix (Aug nodes)
	W, H, C  int    // geometry of the materialized object

	Parent   *Node
	Children []*Node
	// EdgeCost is the work to produce this node from its parent.
	EdgeCost float64
	// Uses counts samples (across tasks and epochs in the chunk) that
	// consume this node.
	Uses int
	// Cached marks the node as part of the materialization frontier
	// (set initially on leaves, moved by pruning).
	Cached bool
}

// Size returns the materialized object's byte size.
func (n *Node) Size() int64 {
	if n.Kind == KindVideo {
		// The source video already exists in the dataset; caching it
		// locally is free in the planner's accounting (on-demand decode).
		return 0
	}
	return int64(n.W) * int64(n.H) * int64(n.C)
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// SubtreeWeight sums edge costs of the node's strict descendants — the
// recomputation added if those descendants are pruned (recomputed from
// this node on demand). Each edge is weighted by the number of uses of
// the object it produces, since pruning means re-running the op per use.
func (n *Node) SubtreeWeight() float64 {
	var sum float64
	for _, c := range n.Children {
		sum += c.EdgeCost*float64(c.Uses) + c.SubtreeWeight()
	}
	return sum
}

// Sample is one planned training sample: the resolved recipe for
// producing one clip of one task in one epoch.
type Sample struct {
	Task      string
	Epoch     int
	SampleIdx int
	Video     string
	// FrameIndices are the source frames, ascending.
	FrameIndices []int
	// Chains are the resolved per-frame op chains — one for a linear
	// pipeline, several when the pipeline forks with multi/merge; the
	// sample's clip is the ordered concatenation of the chains' clips.
	Chains []*ResolvedChain
	// Leaves[c][i] is the final aug/frame node of chain c for frame i
	// (in clip order, before per-chain reversal).
	Leaves [][]*Node
}

// Ops returns the first chain's resolved ops — the whole pipeline for
// linear tasks.
func (s *Sample) Ops() []ResolvedOp { return s.Chains[0].Ops }

// Reversed reports the first chain's temporal inversion.
func (s *Sample) Reversed() bool { return s.Chains[0].Reversed }

// ConcreteGraph is the per-video object dependency graph for one chunk.
type ConcreteGraph struct {
	Video VideoMeta
	Root  *Node
	// frames indexes decoded-frame nodes by source index.
	frames map[int]*Node
	// augIndex merges aug nodes by (frameIdx, cumulative signature).
	augIndex map[string]*Node
	nodes    int
}

// NewConcreteGraph creates an empty graph rooted at the video.
func NewConcreteGraph(meta VideoMeta) *ConcreteGraph {
	root := &Node{Kind: KindVideo, Video: meta.Name, FrameIdx: -1, W: meta.W, H: meta.H, C: meta.C}
	return &ConcreteGraph{
		Video:    meta,
		Root:     root,
		frames:   map[int]*Node{},
		augIndex: map[string]*Node{},
		nodes:    1,
	}
}

// NodeCount returns the number of nodes in the graph.
func (g *ConcreteGraph) NodeCount() int { return g.nodes }

// FrameNode returns (creating if needed) the decoded-frame node for the
// given source index. decodeCost is the amortized cost of producing this
// frame when the chunk's pool is decoded in one ascending pass.
func (g *ConcreteGraph) FrameNode(idx int, decodeCost float64) *Node {
	if n, ok := g.frames[idx]; ok {
		return n
	}
	n := &Node{
		Kind: KindFrame, Video: g.Video.Name, FrameIdx: idx,
		W: g.Video.W, H: g.Video.H, C: g.Video.C,
		Parent: g.Root, EdgeCost: decodeCost,
	}
	g.Root.Children = append(g.Root.Children, n)
	g.frames[idx] = n
	g.nodes++
	return n
}

// AugChain extends the graph with the op chain applied to the frame at
// idx, merging nodes that already exist (identical signature prefixes are
// shared across tasks, epochs and samples). It returns the final node of
// the chain and increments Uses along the path.
func (g *ConcreteGraph) AugChain(frameNode *Node, ops []ResolvedOp, cm *CostModel) (*Node, error) {
	cur := frameNode
	sig := ""
	w, h, c := cur.W, cur.H, cur.C
	for _, rop := range ops {
		if sig == "" {
			sig = rop.Sig
		} else {
			sig = sig + "|" + rop.Sig
		}
		w, h, c = OpOutputGeometry(rop.Op, w, h, c)
		key := fmt.Sprintf("%d/%s", frameNode.FrameIdx, sig)
		if n, ok := g.augIndex[key]; ok {
			cur = n
			continue
		}
		n := &Node{
			Kind: KindAug, Video: g.Video.Name, FrameIdx: frameNode.FrameIdx,
			Sig: sig, W: w, H: h, C: c,
			Parent:   cur,
			EdgeCost: cm.OpCost(rop.Op.Name(), int64(w)*int64(h)*int64(c)),
		}
		cur.Children = append(cur.Children, n)
		g.augIndex[key] = n
		g.nodes++
		cur = n
	}
	return cur, nil
}

// OpOutputGeometry tracks geometry through an op: given a w x h x c input
// it returns the op's output geometry. The planner uses it while building
// concrete graphs; the engine's reuse layer uses it to locate the source
// geometry entering each crop.
func OpOutputGeometry(op augment.Op, w, h, c int) (int, int, int) {
	switch o := op.(type) {
	case *augment.Resize:
		return o.W, o.H, c
	case *augment.Crop:
		return o.W, o.H, c
	case *augment.CenterCrop:
		return o.W, o.H, c
	case *augment.RandomCrop:
		return o.W, o.H, c
	case *augment.Pad:
		return w + o.Left + o.Right, h + o.Top + o.Bottom, c
	case *augment.Rotate90:
		if o.Turns%2 != 0 {
			return h, w, c
		}
		return w, h, c
	case *augment.Grayscale:
		return w, h, 1
	default:
		return w, h, c
	}
}

// MarkLeavesCached sets the initial pruning state: every leaf cached.
func (g *ConcreteGraph) MarkLeavesCached() {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() && n.Kind != KindVideo {
			n.Cached = true
			return
		}
		n.Cached = false
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(g.Root)
}

// CachedBytes sums the sizes of cached nodes, weighted by nothing — each
// object is stored once regardless of how many samples use it (that is
// the whole point of reuse).
func (g *ConcreteGraph) CachedBytes() int64 {
	var sum int64
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Cached {
			sum += n.Size()
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(g.Root)
	return sum
}

// markAboveFrontier returns the set of nodes that are ancestors of (or
// are themselves) cached nodes. These objects are produced exactly once
// during pre-materialization; everything else with Uses > 0 must be
// recomputed every time a sample needs it.
func (g *ConcreteGraph) markAboveFrontier() map[*Node]bool {
	above := map[*Node]bool{}
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		hasCached := n.Cached
		for _, c := range n.Children {
			if walk(c) {
				hasCached = true
			}
		}
		if hasCached {
			above[n] = true
		}
		return hasCached
	}
	walk(g.Root)
	return above
}

// RecomputeCost is the per-access preprocessing work remaining under the
// current frontier: for every used node that is neither cached nor an
// ancestor of a cached node, its producing edge re-runs once per use.
// With nothing cached this equals the full on-demand pipeline cost; with
// all leaves cached it is zero.
func (g *ConcreteGraph) RecomputeCost() float64 {
	above := g.markAboveFrontier()
	var sum float64
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind != KindVideo && !above[n] && n.Uses > 0 {
			sum += n.EdgeCost * float64(n.Uses)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(g.Root)
	return sum
}

// MaterializationCost is the one-time work to build the cached frontier:
// every edge on a path from the root to a cached node runs exactly once.
// Summed in tree order, not map order, so the float result is identical
// across runs.
func (g *ConcreteGraph) MaterializationCost() float64 {
	above := g.markAboveFrontier()
	var sum float64
	var walk func(n *Node)
	walk = func(n *Node) {
		if above[n] && n.Kind != KindVideo {
			sum += n.EdgeCost
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(g.Root)
	return sum
}

// Frontier returns the cached nodes.
func (g *ConcreteGraph) Frontier() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Cached {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(g.Root)
	return out
}

// ChunkPlan is the full materialization plan for k epochs across all
// tasks: per-video concrete graphs plus the resolved sample recipes.
type ChunkPlan struct {
	StartEpoch int
	Epochs     int
	Graphs     map[string]*ConcreteGraph
	Samples    []*Sample
	// Pool records the shared frame pool per video.
	Pools map[string]*FramePool
	// Windows records the shared crop window per video (nil when no task
	// uses stochastic crops).
	Windows map[string]*CropWindow
	// Stats
	DecodedFrames   int
	SharedFrameHits int
	CropOps         int
	SharedCropHits  int
}

// PlanParams configures chunk planning.
type PlanParams struct {
	StartEpoch int
	// Epochs is k, the chunk length in epochs.
	Epochs int
	// Coordinate enables SAND's shared pool/window mechanisms; false
	// reproduces the uncoordinated baseline (every sample draws fresh
	// randomness over the whole video).
	Coordinate bool
	// PoolSlackClips widens the shared pool (see PoolParams).
	PoolSlackClips int
	Seed           int64
	CostModel      *CostModel
}

// TaskSpec couples a task config with its parsed sampling requirement.
type TaskSpec struct {
	Task *config.Task
}

// Req derives the task's sampling requirement.
func (t TaskSpec) Req() SamplingReq {
	return SamplingReq{
		Task:            t.Task.Tag,
		FramesPerVideo:  t.Task.Sampling.FramesPerVideo,
		FrameStride:     t.Task.Sampling.FrameStride,
		SamplesPerVideo: t.Task.Sampling.SamplesPerVideo,
	}
}

// cropReqs extracts the stochastic crop requirements from a task's
// stages, with geometry resolved relative to the source frame size as it
// enters each random_crop (geometry tracking is approximate here: we use
// the declared crop shapes, which the shared window needs).
func cropReqs(t *config.Task) []CropReq {
	var out []CropReq
	collect := func(ops []config.OpSpec) {
		for _, spec := range ops {
			if spec.Op == "random_crop" {
				if h, w, ok := augment.Params(spec.Params).IntPair("shape"); ok {
					out = append(out, CropReq{Task: t.Tag, W: w, H: h})
				}
			}
		}
	}
	for _, st := range t.Stages {
		collect(st.Ops)
		for _, b := range st.Branches {
			collect(b.Ops)
		}
	}
	return out
}

// BuildChunkPlan generates the unified concrete object dependency graph
// and sample recipes for one k-epoch chunk over the given tasks and
// videos. This is the heart of §5.2.
func BuildChunkPlan(tasks []TaskSpec, videos []VideoMeta, p PlanParams) (*ChunkPlan, error) {
	if len(tasks) == 0 || len(videos) == 0 {
		return nil, fmt.Errorf("graph: need at least one task and one video")
	}
	if p.Epochs <= 0 {
		return nil, fmt.Errorf("graph: chunk must cover at least one epoch")
	}
	cm := p.CostModel
	if cm == nil {
		cm = DefaultCostModel()
	}
	rng := rand.New(rand.NewSource(p.Seed))
	plan := &ChunkPlan{
		StartEpoch: p.StartEpoch,
		Epochs:     p.Epochs,
		Graphs:     make(map[string]*ConcreteGraph, len(videos)),
		Pools:      map[string]*FramePool{},
		Windows:    map[string]*CropWindow{},
	}
	reqs := make([]SamplingReq, len(tasks))
	for i, t := range tasks {
		reqs[i] = t.Req()
	}
	// Collect stochastic crop requirements across tasks; the shared
	// window applies when any exist.
	var allCrops []CropReq
	for _, t := range tasks {
		allCrops = append(allCrops, cropReqs(t.Task)...)
	}

	for _, vm := range videos {
		g := NewConcreteGraph(vm)
		plan.Graphs[vm.Name] = g

		var pool *FramePool
		var window *CropWindow
		if p.Coordinate {
			var err error
			pool, err = BuildFramePool(reqs, PoolParams{VideoFrames: vm.Frames, SlackClips: p.PoolSlackClips}, rng)
			if err != nil {
				return nil, fmt.Errorf("graph: video %s: %w", vm.Name, err)
			}
			plan.Pools[vm.Name] = pool
			if len(allCrops) > 0 {
				// The window is placed in the geometry frames have when
				// random_crop runs. Tasks resize before cropping; use the
				// first task's pre-crop geometry as the window source
				// (tasks sharing crops share the preceding pipeline too,
				// or the window simply constrains within the smallest).
				srcW, srcH := preCropGeometry(tasks[0].Task, vm.W, vm.H)
				win, err := BuildCropWindow(allCrops, srcW, srcH, rng)
				if err != nil {
					return nil, fmt.Errorf("graph: video %s: %w", vm.Name, err)
				}
				window = &win
				plan.Windows[vm.Name] = window
			}
		}

		// Per-frame amortized decode cost: frames are decoded in one
		// ascending pass per chunk, so each used frame carries the cost
		// of the roll-forward gap from the previously used frame.
		perFrame := cm.DecodeCost(vm, 1)
		decodeCostFor := func(indices []int) map[int]float64 {
			costs := make(map[int]float64, len(indices))
			prev := -1
			for _, idx := range indices {
				gap := idx - prev
				if prev < 0 {
					k := idx % vm.GOP
					gap = k + 1
				}
				if gap > vm.GOP {
					gap = vm.GOP
				}
				costs[idx] = perFrame * float64(gap)
				prev = idx
			}
			return costs
		}

		for e := 0; e < p.Epochs; e++ {
			epoch := p.StartEpoch + e
			for ti, t := range tasks {
				req := reqs[ti]
				for s := 0; s < req.SamplesPerVideo; s++ {
					var indices []int
					if p.Coordinate {
						indices = pool.Draw(req, rng)
					} else {
						indices = UncoordinatedDraw(req, vm.Frames, rng)
					}
					if len(indices) == 0 {
						continue
					}
					chains, err := ResolveChains(t.Task, config.TrainState{Epoch: epoch},
						vm.W, vm.H, window, rng)
					if err != nil {
						return nil, fmt.Errorf("graph: task %s video %s: %w", t.Task.Tag, vm.Name, err)
					}
					sample := &Sample{
						Task: t.Task.Tag, Epoch: epoch, SampleIdx: s,
						Video: vm.Name, FrameIndices: indices,
						Chains: chains,
					}
					costs := decodeCostFor(indices)
					sample.Leaves = make([][]*Node, len(chains))
					for ci, chain := range chains {
						for _, idx := range indices {
							existedFrame := g.frames[idx] != nil
							fn := g.FrameNode(idx, costs[idx])
							if existedFrame || ci > 0 {
								plan.SharedFrameHits++
							} else {
								plan.DecodedFrames++
							}
							leaf, err := g.AugChain(fn, chain.Ops, cm)
							if err != nil {
								return nil, err
							}
							// Walk the path root..leaf incrementing Uses.
							for n := leaf; n != nil; n = n.Parent {
								n.Uses++
							}
							sample.Leaves[ci] = append(sample.Leaves[ci], leaf)
						}
					}
					plan.Samples = append(plan.Samples, sample)
				}
			}
		}
		g.MarkLeavesCached()
	}
	return plan, nil
}

// preCropGeometry returns the frame geometry right before the first
// random_crop in the task's pipeline (following deterministic resizes),
// which is where the shared window lives.
func preCropGeometry(t *config.Task, w, h int) (int, int) {
	for _, st := range t.Stages {
		for _, spec := range st.Ops {
			switch spec.Op {
			case "resize":
				if nh, nw, ok := augment.Params(spec.Params).IntPair("shape"); ok {
					w, h = nw, nh
				}
			case "random_crop":
				return w, h
			}
		}
		for _, b := range st.Branches {
			for _, spec := range b.Ops {
				if spec.Op == "random_crop" {
					return w, h
				}
			}
		}
	}
	return w, h
}

// TotalCachedBytes sums cached bytes across all per-video graphs.
func (p *ChunkPlan) TotalCachedBytes() int64 {
	var sum int64
	for _, g := range p.Graphs {
		sum += g.CachedBytes()
	}
	return sum
}

// SortedGraphs returns the per-video graphs in video-name order. Float
// cost sums must accumulate in this order: map iteration order varies
// run to run, and with it the last-ulp rounding of the sums — which
// would leak run-to-run jitter into otherwise deterministic simulations.
func (p *ChunkPlan) SortedGraphs() []*ConcreteGraph {
	names := make([]string, 0, len(p.Graphs))
	for name := range p.Graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*ConcreteGraph, len(names))
	for i, name := range names {
		out[i] = p.Graphs[name]
	}
	return out
}

// TotalRecomputeCost sums recompute cost across all per-video graphs.
func (p *ChunkPlan) TotalRecomputeCost() float64 {
	var sum float64
	for _, g := range p.SortedGraphs() {
		sum += g.RecomputeCost()
	}
	return sum
}

// OpCounts tallies planned operations by kind: how many decode and
// augmentation executions the plan implies given the current sharing
// (each node is produced once, regardless of Uses). The uncoordinated
// baseline produces no sharing, so counts equal total op references.
func (p *ChunkPlan) OpCounts() map[string]int {
	counts := map[string]int{}
	for _, g := range p.Graphs {
		var walk func(n *Node)
		walk = func(n *Node) {
			switch n.Kind {
			case KindFrame:
				counts["decode"]++
			case KindAug:
				// Attribute to the last op in the signature.
				counts[lastOpName(n.Sig)]++
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(g.Root)
	}
	return counts
}

func lastOpName(sig string) string {
	// Signatures look like "crop(1,2,3x4)|hflip(1.000)"; extract the last
	// op's name.
	last := sig
	for i := len(sig) - 1; i >= 0; i-- {
		if sig[i] == '|' {
			last = sig[i+1:]
			break
		}
	}
	for i := 0; i < len(last); i++ {
		if last[i] == '(' {
			return last[:i]
		}
	}
	return last
}

// CostBreakdown splits a plan's full on-demand cost (every object
// recomputed per use, nothing cached) into decode and augmentation work.
// The trainsim package uses it to align the planner's implicit decode
// share with each workload's calibrated DecodeFrac.
func (p *ChunkPlan) CostBreakdown() (decode, aug float64) {
	for _, g := range p.SortedGraphs() {
		var walk func(n *Node)
		walk = func(n *Node) {
			switch n.Kind {
			case KindFrame:
				decode += n.EdgeCost * float64(n.Uses)
			case KindAug:
				aug += n.EdgeCost * float64(n.Uses)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(g.Root)
	}
	return decode, aug
}

// CostBreakdownOnce splits the plan's cost into decode and augmentation
// work counting each shared node exactly once — the execution count under
// SAND's reuse, as opposed to CostBreakdown's per-use accounting.
func (p *ChunkPlan) CostBreakdownOnce() (decode, aug float64) {
	for _, g := range p.SortedGraphs() {
		var walk func(n *Node)
		walk = func(n *Node) {
			switch n.Kind {
			case KindFrame:
				decode += n.EdgeCost
			case KindAug:
				aug += n.EdgeCost
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(g.Root)
	}
	return decode, aug
}
