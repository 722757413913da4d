package graph

import (
	"fmt"
	"math/rand"

	"sand/internal/augment"
	"sand/internal/config"
	"sand/internal/frame"
)

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
