package graph

import (
	"fmt"
	"math/rand"
	"strings"

	"sand/internal/augment"
	"sand/internal/config"
	"sand/internal/frame"
)

// ViewType labels nodes of the abstract view dependency graph, mirroring
// Table 1 of the paper.
type ViewType string

const (
	// ViewVideo is the encoded source video.
	ViewVideo ViewType = "video"
	// ViewFrame is a decoded frame.
	ViewFrame ViewType = "frame"
	// ViewAugFrame is an augmented frame at some pipeline depth.
	ViewAugFrame ViewType = "aug_frame"
	// ViewBatch is a final training batch/sample view.
	ViewBatch ViewType = "view"
)

// AbstractNode is a node of a task's abstract view dependency graph: a
// view *type*, not a concrete object.
type AbstractNode struct {
	Type ViewType
	// Name is the config-level view name ("frame", "augmented_frame_0",
	// ...) or the dataset path for the root.
	Name string
	// Stage indexes into the task's Stages for aug_frame nodes; -1
	// otherwise.
	Stage int
	// Out edges: operations producing downstream views.
	Out []*AbstractEdge
}

// AbstractEdge is an operation connecting two view types.
type AbstractEdge struct {
	// Op describes the operation ("decode", "batch", or an augmentation
	// stage signature).
	Op string
	To *AbstractNode
}

// AbstractGraph is the per-task blueprint (§5.2): a dependency chain of
// view types rooted at the dataset path.
type AbstractGraph struct {
	Task *config.Task
	Root *AbstractNode // the video dataset
	// byName maps view names to nodes.
	byName map[string]*AbstractNode
}

// BuildAbstract compiles a validated task config into its abstract view
// dependency graph.
func BuildAbstract(task *config.Task) (*AbstractGraph, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	g := &AbstractGraph{Task: task, byName: map[string]*AbstractNode{}}
	g.Root = &AbstractNode{Type: ViewVideo, Name: task.DatasetPath, Stage: -1}
	g.byName["video"] = g.Root
	frameNode := &AbstractNode{Type: ViewFrame, Name: "frame", Stage: -1}
	g.byName["frame"] = frameNode
	g.Root.Out = append(g.Root.Out, &AbstractEdge{Op: "decode", To: frameNode})

	for i := range task.Stages {
		st := &task.Stages[i]
		for oi, out := range st.Outputs {
			node := &AbstractNode{Type: ViewAugFrame, Name: out, Stage: i}
			g.byName[out] = node
			op := stageSignature(st, oi)
			for _, in := range st.Inputs {
				parent, ok := g.byName[in]
				if !ok {
					return nil, fmt.Errorf("graph: task %s: stage %s input %q unresolved", task.Tag, st.Name, in)
				}
				parent.Out = append(parent.Out, &AbstractEdge{Op: op, To: node})
			}
		}
	}
	final, ok := g.byName[task.FinalOutput()]
	if !ok {
		return nil, fmt.Errorf("graph: task %s: final output %q unresolved", task.Tag, task.FinalOutput())
	}
	batch := &AbstractNode{Type: ViewBatch, Name: "view", Stage: -1}
	g.byName["view"] = batch
	final.Out = append(final.Out, &AbstractEdge{Op: "batch", To: batch})
	return g, nil
}

// Node returns the named view node.
func (g *AbstractGraph) Node(name string) (*AbstractNode, bool) {
	n, ok := g.byName[name]
	return n, ok
}

// NodeCount returns the number of view nodes.
func (g *AbstractGraph) NodeCount() int { return len(g.byName) }

// stageSignature renders a stage into a canonical operation label for
// abstract edges.
func stageSignature(st *config.Stage, branchIdx int) string {
	var sb strings.Builder
	sb.WriteString(string(st.Type))
	sb.WriteByte(':')
	switch st.Type {
	case config.BranchSingle:
		sb.WriteString(opsSignature(st.Ops))
	case config.BranchMulti:
		if branchIdx < len(st.Branches) {
			sb.WriteString(opsSignature(st.Branches[branchIdx].Ops))
		}
	default:
		for i, b := range st.Branches {
			if i > 0 {
				sb.WriteByte('/')
			}
			if b.Condition != "" {
				fmt.Fprintf(&sb, "[%s]", b.Condition)
			} else {
				fmt.Fprintf(&sb, "[p=%.3f]", b.Prob)
			}
			sb.WriteString(opsSignature(b.Ops))
		}
	}
	return sb.String()
}

func opsSignature(ops []config.OpSpec) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.Signature()
	}
	return strings.Join(parts, ",")
}

// SharedPrefixDepth compares two tasks' abstract graphs and returns how
// many leading pipeline operations (decode counts as the first) are
// identical — the planner's signal for how deep cross-task object sharing
// can go before the pipelines diverge.
func SharedPrefixDepth(a, b *AbstractGraph) int {
	if a.Task.DatasetPath != b.Task.DatasetPath {
		return 0
	}
	depth := 1 // shared decode
	na, nb := a.byName["frame"], b.byName["frame"]
	for {
		if len(na.Out) != 1 || len(nb.Out) != 1 {
			return depth
		}
		ea, eb := na.Out[0], nb.Out[0]
		if ea.Op != eb.Op || ea.To.Type == ViewBatch || eb.To.Type == ViewBatch {
			return depth
		}
		depth++
		na, nb = ea.To, eb.To
	}
}

// ResolvedOp is one fully concrete per-frame operation after all
// conditional/random control flow and stochastic parameters have been
// resolved at planning time. It is directly executable and has a stable
// signature for node merging.
type ResolvedOp struct {
	Sig string
	Op  augment.Op
}

// ResolvedChain is one parallel branch of a lowered pipeline: an op list
// plus the temporal directives (clip reversal) that apply at assembly.
type ResolvedChain struct {
	Ops      []ResolvedOp
	Reversed bool
	// w, h, c track geometry during resolution.
	w, h, c int
}

func (c *ResolvedChain) clone() *ResolvedChain {
	d := &ResolvedChain{Reversed: c.Reversed, w: c.w, h: c.h, c: c.c}
	d.Ops = append(d.Ops, c.Ops...)
	return d
}

// ResolveStages lowers a task's augmentation stages into a single flat,
// resolved per-frame op list (the first chain for tasks whose pipelines
// use multi/merge). See ResolveChains for the general form.
func ResolveStages(task *config.Task, state config.TrainState, srcW, srcH int,
	sharedWin *CropWindow, rng *rand.Rand) ([]ResolvedOp, bool, error) {
	chains, err := ResolveChains(task, state, srcW, srcH, sharedWin, rng)
	if err != nil {
		return nil, false, err
	}
	return chains[0].Ops, chains[0].Reversed, nil
}

// ResolveChains lowers a task's augmentation stages into fully resolved
// per-frame op chains for one sample, drawing all randomness from rng and
// coordinating stochastic crops through the shared window (when sharedWin
// is non-nil). A pipeline without multi/merge stages yields exactly one
// chain; a multi stage forks the flow into parallel chains, and a merge
// stage joins chains into one output stream whose clip is the ordered
// concatenation of its branches' clips.
//
// srcW and srcH describe frame geometry entering the augmentation
// pipeline; geometry is tracked per chain so crops validate.
func ResolveChains(task *config.Task, state config.TrainState, srcW, srcH int,
	sharedWin *CropWindow, rng *rand.Rand) ([]*ResolvedChain, error) {

	emit := func(spec config.OpSpec, ch *ResolvedChain) error {
		switch spec.Op {
		case "inv_sample":
			ch.Reversed = !ch.Reversed
			return nil
		case "random_crop":
			ph, pw, ok := augment.Params(spec.Params).IntPair("shape")
			if !ok {
				return fmt.Errorf("graph: random_crop missing shape")
			}
			var rect CropWindow
			var err error
			if sharedWin != nil {
				rect, err = sharedWin.SubCrop(pw, ph, rng)
			} else {
				full := CropWindow{X: 0, Y: 0, W: ch.w, H: ch.h}
				rect, err = full.SubCrop(pw, ph, rng)
			}
			if err != nil {
				return err
			}
			op := &augment.Crop{X: rect.X, Y: rect.Y, W: rect.W, H: rect.H}
			ch.Ops = append(ch.Ops, ResolvedOp{Sig: op.Signature(), Op: op})
			ch.w, ch.h = pw, ph
			return nil
		case "flip":
			prob := 0.5
			if p, ok := augment.Params(spec.Params).Float("flip_prob"); ok {
				prob = p
			}
			if rng.Float64() < prob {
				op := &augment.HFlip{Prob: 1}
				ch.Ops = append(ch.Ops, ResolvedOp{Sig: op.Signature(), Op: op})
			}
			return nil
		case "vflip":
			prob := 0.5
			if p, ok := augment.Params(spec.Params).Float("flip_prob"); ok {
				prob = p
			}
			if rng.Float64() < prob {
				op := &augment.VFlip{Prob: 1}
				ch.Ops = append(ch.Ops, ResolvedOp{Sig: op.Signature(), Op: op})
			}
			return nil
		case "color_jitter":
			// Resolve the jitter draw into a deterministic jitter:
			// the sampled factors are baked into a derived op.
			b, _ := augment.Params(spec.Params).Float("brightness")
			c, _ := augment.Params(spec.Params).Float("contrast")
			op := &resolvedJitter{
				bright:   1 + (rng.Float64()*2-1)*b,
				contrast: 1 + (rng.Float64()*2-1)*c,
			}
			ch.Ops = append(ch.Ops, ResolvedOp{Sig: op.Signature(), Op: op})
			return nil
		default:
			op, err := augment.Build(spec.Op, augment.Params(spec.Params))
			if err != nil {
				return err
			}
			if !op.Deterministic() {
				return fmt.Errorf("graph: op %s is stochastic but has no resolution rule", spec.Op)
			}
			ch.Ops = append(ch.Ops, ResolvedOp{Sig: op.Signature(), Op: op})
			ch.w, ch.h, ch.c = OpOutputGeometry(op, ch.w, ch.h, ch.c)
			return nil
		}
	}

	// views maps a view name to the parallel chains that produce it
	// (exactly one chain unless the view descends from a multi stage
	// whose branches have not yet merged).
	views := map[string][]*ResolvedChain{
		"frame": {{w: srcW, h: srcH, c: 3}},
	}
	emitAll := func(specs []config.OpSpec, chains []*ResolvedChain, stage string) error {
		for _, ch := range chains {
			for _, spec := range specs {
				if err := emit(spec, ch); err != nil {
					return fmt.Errorf("graph: stage %s: %w", stage, err)
				}
			}
		}
		return nil
	}
	for i := range task.Stages {
		st := &task.Stages[i]
		in, ok := views[st.Inputs[0]]
		if !ok {
			return nil, fmt.Errorf("graph: stage %s: input %q unresolved", st.Name, st.Inputs[0])
		}
		switch st.Type {
		case config.BranchSingle:
			if err := emitAll(st.Ops, in, st.Name); err != nil {
				return nil, err
			}
			views[st.Outputs[0]] = in
		case config.BranchConditional:
			for _, b := range st.Branches {
				take := b.Condition == "else"
				if !take {
					cond, err := config.ParseCondition(b.Condition)
					if err != nil {
						return nil, fmt.Errorf("graph: stage %s: %w", st.Name, err)
					}
					take = cond.Eval(state)
				}
				if take {
					if err := emitAll(b.Ops, in, st.Name); err != nil {
						return nil, err
					}
					break
				}
			}
			views[st.Outputs[0]] = in
		case config.BranchRandom:
			r := rng.Float64()
			acc := 0.0
			for _, b := range st.Branches {
				acc += b.Prob
				if r < acc || acc >= 0.999 {
					if err := emitAll(b.Ops, in, st.Name); err != nil {
						return nil, err
					}
					break
				}
			}
			views[st.Outputs[0]] = in
		case config.BranchMulti:
			// Fork: each branch gets clones of the input chains with its
			// own op suffix, registered under its own output view.
			for bi, b := range st.Branches {
				forked := make([]*ResolvedChain, len(in))
				for ci, ch := range in {
					forked[ci] = ch.clone()
				}
				if err := emitAll(b.Ops, forked, st.Name); err != nil {
					return nil, err
				}
				views[st.Outputs[bi]] = forked
			}
		case config.BranchMerge:
			// Join: the output stream is the ordered concatenation of
			// the input views' chains. A merged stream is one clip, so
			// every branch must arrive at identical frame geometry.
			var merged []*ResolvedChain
			for _, name := range st.Inputs {
				chains, ok := views[name]
				if !ok {
					return nil, fmt.Errorf("graph: stage %s: merge input %q unresolved", st.Name, name)
				}
				merged = append(merged, chains...)
			}
			for _, ch := range merged[1:] {
				if ch.w != merged[0].w || ch.h != merged[0].h || ch.c != merged[0].c {
					return nil, fmt.Errorf("graph: stage %s: merge branches have mismatched geometry %dx%dx%d vs %dx%dx%d",
						st.Name, ch.w, ch.h, ch.c, merged[0].w, merged[0].h, merged[0].c)
				}
			}
			views[st.Outputs[0]] = merged
		}
	}
	out, ok := views[task.FinalOutput()]
	if !ok || len(out) == 0 {
		return nil, fmt.Errorf("graph: final output %q unresolved", task.FinalOutput())
	}
	return out, nil
}

// resolvedJitter is a ColorJitter with its random draw already made, so it
// is deterministic and therefore shareable/cacheable.
type resolvedJitter struct {
	bright, contrast float64
}

// Name implements augment.Op.
func (j *resolvedJitter) Name() string { return "resolved_jitter" }

// Signature implements augment.Op.
func (j *resolvedJitter) Signature() string {
	return fmt.Sprintf("resolved_jitter(%.4f,%.4f)", j.bright, j.contrast)
}

// Deterministic implements augment.Op.
func (j *resolvedJitter) Deterministic() bool { return true }

// Apply implements augment.Op: augment.ColorJitter's transform with the
// pre-drawn factors.
func (j *resolvedJitter) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	return augment.Jitter(clip, j.bright, j.contrast)
}
