// Package graph implements SAND's materialization planning (§5.2–5.3 of
// the paper). A task's stage list, whose stages name their input and
// output views, is its abstract view graph: ResolveChains walks it by
// view name into resolved per-frame op chains, and BuildChunkPlan lowers
// those chains into the unified concrete object dependency graph for a
// k-epoch chunk. The package also holds the coordinated randomization
// mechanisms (shared frame pool, shared crop windows) that make
// cross-task reuse possible without breaking training randomness, and
// the storage-budget pruning of Algorithm 1.
package graph

import (
	"fmt"
	"math/rand"
)

// GCD returns the greatest common divisor of a and b.
func GCD(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// GCDAll folds GCD over a list; it returns 0 for an empty list.
func GCDAll(xs []int) int {
	g := 0
	for _, x := range xs {
		g = GCD(g, x)
	}
	return g
}

// SamplingReq is one task's frame-extraction requirement, collected from
// its config (step 1 of the shared-pool construction).
type SamplingReq struct {
	Task            string
	FramesPerVideo  int
	FrameStride     int
	SamplesPerVideo int
}

// Span returns the clip length in source frames this requirement covers:
// (frames-1)*stride + 1.
func (r SamplingReq) Span() int {
	return (r.FramesPerVideo-1)*r.FrameStride + 1
}

// FramePool is the coordinated frame pool for one (video, k-epoch chunk):
// a contiguous window on the unified GCD sampling grid from which every
// task draws its clips. The pool's position is random (temporal
// randomness is preserved); all tasks and all epochs of the chunk draw
// from the same pool (reuse is maximized).
type FramePool struct {
	// GridStride is the GCD of all task strides.
	GridStride int
	// Start is the first source-frame index in the pool.
	Start int
	// Indices are the pooled source-frame indices, ascending.
	Indices []int
	// MaxSpan is the largest clip span any task requires.
	MaxSpan int
}

// PoolParams configures pool construction.
type PoolParams struct {
	// VideoFrames is the length of the source video.
	VideoFrames int
	// SlackClips adds extra clip-spans of pool breadth so different
	// epochs in the chunk draw distinct (but overlapping) clips. 0 means
	// the pool is exactly one max-span window. The paper sizes the pool
	// "up to the maximum clip length required"; slack generalizes this
	// to multi-epoch chunks.
	SlackClips int
}

// BuildFramePool runs the three construction steps from §5.2: collect
// requirements, compute the GCD grid, and randomly place the pool window.
func BuildFramePool(reqs []SamplingReq, p PoolParams, rng *rand.Rand) (*FramePool, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("graph: no sampling requirements")
	}
	if p.VideoFrames <= 0 {
		return nil, fmt.Errorf("graph: video has no frames")
	}
	strides := make([]int, 0, len(reqs))
	maxSpan := 0
	for _, r := range reqs {
		if r.FramesPerVideo <= 0 || r.FrameStride <= 0 {
			return nil, fmt.Errorf("graph: task %s has invalid sampling %+v", r.Task, r)
		}
		strides = append(strides, r.FrameStride)
		if s := r.Span(); s > maxSpan {
			maxSpan = s
		}
	}
	grid := GCDAll(strides)
	span := maxSpan + p.SlackClips*maxSpan
	if span > p.VideoFrames {
		span = p.VideoFrames
	}
	if maxSpan > p.VideoFrames {
		// Short video: the pool must cover the whole video; tasks clamp.
		maxSpan = p.VideoFrames
	}
	// Random placement of the pool window (temporal randomness).
	maxStart := p.VideoFrames - span
	start := 0
	if maxStart > 0 {
		start = rng.Intn(maxStart + 1)
	}
	// Align to the grid so every task's stride pattern lands on pool
	// members.
	start -= start % grid
	var indices []int
	for f := start; f < start+span && f < p.VideoFrames; f += grid {
		indices = append(indices, f)
	}
	return &FramePool{GridStride: grid, Start: start, Indices: indices, MaxSpan: maxSpan}, nil
}

// Contains reports whether source frame f is in the pool.
func (fp *FramePool) Contains(f int) bool {
	if f < fp.Start || (f-fp.Start)%fp.GridStride != 0 {
		return false
	}
	off := (f - fp.Start) / fp.GridStride
	return off >= 0 && off < len(fp.Indices)
}

// Draw samples one clip for the given requirement: a random start inside
// the pool such that the whole stride pattern stays inside it. Randomness
// is preserved per task and per draw; reuse follows because every draw's
// frames are pool members. If the pool (or video) is too short for the
// full pattern the clip is truncated — matching how real loaders handle
// short videos.
func (fp *FramePool) Draw(r SamplingReq, rng *rand.Rand) []int {
	if len(fp.Indices) == 0 {
		return nil
	}
	span := r.Span()
	poolEnd := fp.Indices[len(fp.Indices)-1]
	// Latest start (in source frames) so start+span-1 <= poolEnd.
	latest := poolEnd - span + 1
	if latest < fp.Start {
		latest = fp.Start
	}
	// Starts must lie on the task's stride-compatible grid positions:
	// any pool index works as a start since stride%grid == 0.
	nStarts := (latest-fp.Start)/fp.GridStride + 1
	start := fp.Start + rng.Intn(nStarts)*fp.GridStride
	out := make([]int, 0, r.FramesPerVideo)
	for i := 0; i < r.FramesPerVideo; i++ {
		f := start + i*r.FrameStride
		if !fp.Contains(f) {
			break
		}
		out = append(out, f)
	}
	return out
}

// UncoordinatedDraw samples a clip without a shared pool — the baseline
// behaviour where each task independently picks a random start over the
// whole video. Used by the baselines and by the Figure 19/20 experiments.
func UncoordinatedDraw(r SamplingReq, videoFrames int, rng *rand.Rand) []int {
	span := r.Span()
	maxStart := videoFrames - span
	if maxStart < 0 {
		maxStart = 0
	}
	start := 0
	if maxStart > 0 {
		start = rng.Intn(maxStart + 1)
	}
	out := make([]int, 0, r.FramesPerVideo)
	for i := 0; i < r.FramesPerVideo; i++ {
		f := start + i*r.FrameStride
		if f >= videoFrames {
			break
		}
		out = append(out, f)
	}
	return out
}

// CropReq is one task's stochastic spatial requirement: the crop size it
// needs out of a source of the given dimensions.
type CropReq struct {
	Task string
	W, H int
}

// CropWindow is the shared random window (§5.2, spatial coordination):
// large enough for the biggest crop any task needs, placed randomly once
// per coordination scope; tasks then crop sub-regions inside it.
type CropWindow struct {
	X, Y, W, H int
}

// BuildCropWindow analyses all tasks' crop requirements (step 1),
// determines the maximum dimensions (step 2), and randomly places a
// window of that size within the srcW x srcH source frame (step 3).
// Per the paper, the window is exactly the largest required crop: the
// max-size task's crop IS the window (its spatial randomness lives in
// the window placement, re-drawn per coordination scope), while smaller
// crops keep per-draw randomness by choosing sub-regions.
func BuildCropWindow(reqs []CropReq, srcW, srcH int, rng *rand.Rand) (CropWindow, error) {
	if len(reqs) == 0 {
		return CropWindow{}, fmt.Errorf("graph: no crop requirements")
	}
	maxW, maxH := 0, 0
	for _, r := range reqs {
		if r.W <= 0 || r.H <= 0 {
			return CropWindow{}, fmt.Errorf("graph: task %s has invalid crop %dx%d", r.Task, r.W, r.H)
		}
		if r.W > maxW {
			maxW = r.W
		}
		if r.H > maxH {
			maxH = r.H
		}
	}
	if maxW > srcW || maxH > srcH {
		return CropWindow{}, fmt.Errorf("graph: required window %dx%d exceeds source %dx%d", maxW, maxH, srcW, srcH)
	}
	return CropWindow{
		X: randInt(rng, srcW-maxW+1),
		Y: randInt(rng, srcH-maxH+1),
		W: maxW,
		H: maxH,
	}, nil
}

// SubCrop draws a task's crop inside the shared window. The location is
// random within the window (spatial randomness preserved at task level)
// while the result is guaranteed to be a sub-region of the shared,
// cacheable window object.
func (w CropWindow) SubCrop(cw, ch int, rng *rand.Rand) (CropWindow, error) {
	if cw > w.W || ch > w.H {
		return CropWindow{}, fmt.Errorf("graph: crop %dx%d exceeds shared window %dx%d", cw, ch, w.W, w.H)
	}
	return CropWindow{
		X: w.X + randInt(rng, w.W-cw+1),
		Y: w.Y + randInt(rng, w.H-ch+1),
		W: cw,
		H: ch,
	}, nil
}

func randInt(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return rng.Intn(n)
}
