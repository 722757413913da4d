// Package augment implements the data-augmentation operator library SAND's
// materialization engine executes: resize, crop (fixed and random), flips,
// rotation, color jitter, grayscale, normalization, padding, saturation
// and temporal inversion.
//
// Bilinear resize has one kernel, which computes any window of the
// resize output; ResizeCrop uses it to run a resize and the crop after
// it as one pass over the pixels the crop keeps.
//
// Every operator implements Op, consumes a clip, and produces a clip,
// leaving its input untouched — the engine relies on that immutability when
// it shares intermediate objects between tasks. An operator that is an
// identity for its sampled parameters (a flip that did not trigger, a
// zero-turn rotation) may return its input clip unchanged, so callers must
// not mutate returned clips either. Output frames are fresh allocations
// owned by the returned clip; the GC frees dead intermediates. Operators
// carry a stable Signature() so the planner can detect when two tasks
// request identical work (the precondition for merging nodes in the
// concrete object dependency graph).
package augment

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"sand/internal/frame"
)

// Op is a single augmentation operator.
type Op interface {
	// Name returns the operator's registry name (e.g. "resize").
	Name() string
	// Signature returns a canonical string identifying the operator and
	// its parameters. Two ops with equal signatures produce identical
	// output for identical input and randomness, so their graph nodes may
	// be merged.
	Signature() string
	// Deterministic reports whether the op's output depends only on its
	// input (true) or also on sampled randomness (false). The planner
	// shares deterministic outputs freely; stochastic outputs are shared
	// only through the coordinated-window mechanism.
	Deterministic() bool
	// Apply transforms clip, drawing any randomness from rng. rng may be
	// nil for deterministic ops.
	Apply(clip *frame.Clip, rng *rand.Rand) (*frame.Clip, error)
}

// RegionOp is implemented by crop-family ops that read exactly one fixed
// source rectangle per frame. The engine's overlap-aware reuse layer uses
// it to compare crop windows across a sample's chains and materialize one
// bounding-superset region instead of re-running the shared prefix per
// chain.
type RegionOp interface {
	Op
	// Region returns the source rectangle the op reads from a srcW x srcH
	// frame. ok is false when the rectangle depends on randomness that has
	// not been resolved yet (e.g. RandomCrop before plan-time lowering).
	Region(srcW, srcH int) (x, y, w, h int, ok bool)
}

// windowed is implemented by crop-family ops whose whole effect is
// selecting one rectangle of their input. ResizeCrop fuses a bilinear
// Resize immediately followed by a windowed op into one kernel that
// computes only the selected window of the resize output.
//
// Contract: window must draw exactly the same values from rng as Apply
// would for the same geometry, and must return ok=false — before
// consuming any randomness — in every case where Apply would fail or
// need geometry the caller cannot guarantee; the caller then falls back
// to the unfused path, which reproduces Apply's error and rng behavior.
type windowed interface {
	Op
	window(srcW, srcH int, rng *rand.Rand) (x, y, w, h int, ok bool)
}

// ResizeCrop runs resize followed by crop as one kernel when resize is
// a bilinear Resize and crop a crop-family op (Crop, CenterCrop,
// RandomCrop): it computes only the window of the resize output the crop
// keeps, so the result is byte-identical to the two Applys and the crop
// draws from rng exactly as its Apply would. Output frames are fresh
// frames carrying their input's Index and PTS. ok is false —
// before any randomness is drawn — when the pair does not fuse or the
// crop would fail; the caller then applies the two ops one by one.
// Pipeline.Apply and the engine's materializer both fuse through it.
func ResizeCrop(resize, crop Op, clip *frame.Clip, rng *rand.Rand) (*frame.Clip, bool) {
	rz, isRz := resize.(*Resize)
	win, isWin := crop.(windowed)
	if !isRz || !isWin || !rz.isBilinear() || clip.Len() == 0 {
		return nil, false
	}
	wx, wy, ww, wh, ok := win.window(rz.W, rz.H, rng)
	if !ok {
		return nil, false
	}
	srcW, srcH, _ := clip.Geometry()
	m := bilinearTaps(srcW, srcH, rz.W, rz.H)
	out, err := mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		return resizeWindow(f, m, wx, wy, ww, wh), nil
	})
	// Every output frame has the window's geometry, so only an empty
	// clip could fail, and that was ruled out above.
	return out, err == nil
}

// Pipeline applies a sequence of ops in order.
type Pipeline []Op

// Signature returns the concatenated signature of all stages.
func (p Pipeline) Signature() string {
	parts := make([]string, len(p))
	for i, op := range p {
		parts[i] = op.Signature()
	}
	return strings.Join(parts, "|")
}

// Deterministic reports whether every stage is deterministic.
func (p Pipeline) Deterministic() bool {
	for _, op := range p {
		if !op.Deterministic() {
			return false
		}
	}
	return true
}

// Apply runs the pipeline stage by stage. A bilinear resize fuses with
// the crop after it.
func (p Pipeline) Apply(clip *frame.Clip, rng *rand.Rand) (*frame.Clip, error) {
	cur := clip
	for i := 0; i < len(p); i++ {
		op := p[i]
		// Fusion fast path: a bilinear resize immediately followed by a
		// crop-family stage computes only the pixels the crop keeps.
		if i+1 < len(p) {
			if next, ok := ResizeCrop(op, p[i+1], cur, rng); ok {
				cur = next
				i++ // the crop stage is folded into this one
				continue
			}
		}
		next, err := op.Apply(cur, rng)
		if err != nil {
			return nil, fmt.Errorf("augment: stage %d (%s): %w", i, op.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// mapFrames applies fn to every frame, building a new clip.
func mapFrames(clip *frame.Clip, fn func(*frame.Frame) (*frame.Frame, error)) (*frame.Clip, error) {
	out := make([]*frame.Frame, clip.Len())
	for i, f := range clip.Frames {
		g, err := fn(f)
		if err != nil {
			return nil, err
		}
		g.Index, g.PTS = f.Index, f.PTS
		out[i] = g
	}
	return frame.NewClip(out)
}

// Resize scales every frame to W x H.
type Resize struct {
	W, H int
	// Interpolation is "bilinear" (default) or "nearest".
	Interpolation string
}

// Name implements Op.
func (r *Resize) Name() string { return "resize" }

// Signature implements Op.
func (r *Resize) Signature() string {
	interp := r.Interpolation
	if interp == "" {
		interp = "bilinear"
	}
	return fmt.Sprintf("resize(%dx%d,%s)", r.W, r.H, interp)
}

// Deterministic implements Op.
func (r *Resize) Deterministic() bool { return true }

// isBilinear reports whether Apply runs the bilinear kernel.
func (r *Resize) isBilinear() bool {
	return r.W > 0 && r.H > 0 && (r.Interpolation == "" || r.Interpolation == "bilinear")
}

// Apply implements Op.
func (r *Resize) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	if r.W <= 0 || r.H <= 0 {
		return nil, fmt.Errorf("resize: invalid target %dx%d", r.W, r.H)
	}
	switch r.Interpolation {
	case "", "bilinear", "nearest":
	default:
		return nil, fmt.Errorf("resize: unknown interpolation %q", r.Interpolation)
	}
	if r.Interpolation == "nearest" {
		return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
			return resizeNearest(f, r.W, r.H), nil
		})
	}
	// A full resize is the window covering the whole output.
	srcW, srcH, _ := clip.Geometry()
	m := bilinearTaps(srcW, srcH, r.W, r.H)
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		return resizeWindow(f, m, 0, 0, r.W, r.H), nil
	})
}

func resizeNearest(f *frame.Frame, w, h int) *frame.Frame {
	out := frame.New(w, h, f.C)
	for c := 0; c < f.C; c++ {
		src := f.Plane(c)
		dst := out.Plane(c)
		for y := 0; y < h; y++ {
			sy := y * f.H / h
			for x := 0; x < w; x++ {
				sx := x * f.W / w
				dst[y*w+x] = src[sy*f.W+sx]
			}
		}
	}
	return out
}

// bilinearTap is one output coordinate's bilinear taps: the two source
// samples it reads and the 16.16 fixed-point weight of the second.
type bilinearTap struct{ s0, s1, f int32 }

// bilinearMap holds the taps of one resize geometry, one per output
// column (xs) and row (ys).
type bilinearMap struct {
	xs, ys []bilinearTap
}

// bilinearAxis computes taps for one axis with half-pixel centers. Taps
// are non-decreasing in the output coordinate and s1 is s0 or s0+1.
func bilinearAxis(srcN, dstN int) []bilinearTap {
	const fpShift = 16
	const fpOne = 1 << fpShift
	step := (srcN << fpShift) / dstN
	taps := make([]bilinearTap, dstN)
	for x := range taps {
		sFP := x*step + step/2 - fpOne/2
		if sFP < 0 {
			sFP = 0
		}
		s := sFP >> fpShift
		s1 := s + 1
		if s1 >= srcN {
			s1 = srcN - 1
		}
		taps[x] = bilinearTap{int32(s), int32(s1), int32(sFP & (fpOne - 1))}
	}
	return taps
}

// tapKey is a resize geometry: source and target sizes.
type tapKey struct{ srcW, srcH, w, h int }

// maxTapTables bounds tapTables. A process meets few resize geometries
// (one per source shape and target); past the bound, a new geometry's
// tables are built per call and not kept.
const maxTapTables = 64

// tapTables holds tap tables by geometry for every Resize. The engine
// applies an op one frame at a time and resolves a fresh op per sample,
// so tables built per call would be rebuilt for every frame, and tables
// kept per op would grow with the plan.
var tapTables struct {
	sync.Mutex
	m map[tapKey]*bilinearMap
}

// bilinearTaps returns the tap tables for a srcW x srcH -> w x h resize.
func bilinearTaps(srcW, srcH, w, h int) *bilinearMap {
	k := tapKey{srcW, srcH, w, h}
	tapTables.Lock()
	defer tapTables.Unlock()
	if m, ok := tapTables.m[k]; ok {
		return m
	}
	m := &bilinearMap{xs: bilinearAxis(srcW, w), ys: bilinearAxis(srcH, h)}
	if tapTables.m == nil {
		tapTables.m = make(map[tapKey]*bilinearMap)
	}
	if len(tapTables.m) < maxTapTables {
		tapTables.m[k] = m
	}
	return m
}

// rowScratch recycles resizeWindow's horizontally filtered rows.
var rowScratch = sync.Pool{New: func() any { return new([]int32) }}

// resizeWindow computes the [wx,wx+ww) x [wy,wy+wh) window of the
// bilinear resize m describes; a full resize is the window covering the
// whole output. It is separable: each source row the window reads is filtered
// horizontally once per plane into an int32 row, p0<<16 + (p1-p0)*fx,
// then each output row blends two of those rows in int64,
// (top<<16 + (bot-top)*fy) >> 32. That is the per-pixel 16.16 formula
// with the horizontal products shared between output rows, so every
// byte matches it. Rows no output row reads (a downscale of more than
// 2x skips some) are never filtered.
func resizeWindow(f *frame.Frame, m *bilinearMap, wx, wy, ww, wh int) *frame.Frame {
	const fpShift = 16
	out := frame.New(ww, wh, f.C)
	xs := m.xs[wx : wx+ww]
	ys := m.ys[wy : wy+wh]
	// Taps are non-decreasing, so the window reads source rows
	// ylo..ys[wh-1].s1; filtered row r lives at rows[(r-ylo)*ww:].
	ylo := int(ys[0].s0)
	n := (int(ys[wh-1].s1) - ylo + 1) * ww
	buf := rowScratch.Get().(*[]int32)
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	rows := (*buf)[:n]
	for c := 0; c < f.C; c++ {
		src := f.Plane(c)
		dst := out.Plane(c)
		next := ylo // every row below next that an output row reads is filtered
		for y, ty := range ys {
			r0, r1 := int(ty.s0), int(ty.s1)
			for r := max(next, r0); r <= r1; r++ {
				srow := src[r*f.W : (r+1)*f.W]
				hrow := rows[(r-ylo)*ww : (r-ylo+1)*ww]
				hrow = hrow[:len(xs)]
				for x, t := range xs {
					p0 := int32(srow[t.s0])
					hrow[x] = p0<<fpShift + (int32(srow[t.s1])-p0)*t.f
				}
			}
			next = max(next, r1+1)
			top := rows[(r0-ylo)*ww : (r0-ylo+1)*ww]
			bot := rows[(r1-ylo)*ww : (r1-ylo+1)*ww]
			orow := dst[y*ww : (y+1)*ww]
			top, bot = top[:len(orow)], bot[:len(orow)]
			fy := int64(ty.f)
			for x := range orow {
				t := int64(top[x])
				// Convex combination of samples in [0,255] with weights in
				// [0,1): the result cannot leave [0,255], so no clamp.
				orow[x] = byte((t<<fpShift + (int64(bot[x])-t)*fy) >> (2 * fpShift))
			}
		}
	}
	rowScratch.Put(buf)
	return out
}

// Crop extracts a fixed rectangle from every frame.
type Crop struct {
	X, Y, W, H int
}

// Name implements Op.
func (c *Crop) Name() string { return "crop" }

// Signature implements Op.
func (c *Crop) Signature() string { return fmt.Sprintf("crop(%d,%d,%dx%d)", c.X, c.Y, c.W, c.H) }

// Deterministic implements Op.
func (c *Crop) Deterministic() bool { return true }

// Apply implements Op.
func (c *Crop) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		return f.SubRect(c.X, c.Y, c.W, c.H)
	})
}

// Region implements RegionOp: a fixed crop reads the same rectangle
// regardless of source geometry.
func (c *Crop) Region(srcW, srcH int) (int, int, int, int, bool) {
	return c.X, c.Y, c.W, c.H, true
}

// window implements windowed: the fixed rectangle, ok only when it lies
// inside the source (otherwise Apply's SubRect error must surface via
// the unfused path).
func (c *Crop) window(srcW, srcH int, _ *rand.Rand) (int, int, int, int, bool) {
	ok := c.X >= 0 && c.Y >= 0 && c.W > 0 && c.H > 0 && c.X+c.W <= srcW && c.Y+c.H <= srcH
	return c.X, c.Y, c.W, c.H, ok
}

// CenterCrop extracts a centered W x H rectangle.
type CenterCrop struct {
	W, H int
}

// Name implements Op.
func (c *CenterCrop) Name() string { return "center_crop" }

// Signature implements Op.
func (c *CenterCrop) Signature() string { return fmt.Sprintf("center_crop(%dx%d)", c.W, c.H) }

// Deterministic implements Op.
func (c *CenterCrop) Deterministic() bool { return true }

// Apply implements Op.
func (c *CenterCrop) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		return f.SubRect((f.W-c.W)/2, (f.H-c.H)/2, c.W, c.H)
	})
}

// Region implements RegionOp: the rectangle is determined by source
// geometry alone.
func (c *CenterCrop) Region(srcW, srcH int) (int, int, int, int, bool) {
	return (srcW - c.W) / 2, (srcH - c.H) / 2, c.W, c.H, true
}

// window implements windowed: the centered rectangle, ok only when it
// lies inside the source.
func (c *CenterCrop) window(srcW, srcH int, _ *rand.Rand) (int, int, int, int, bool) {
	x, y := (srcW-c.W)/2, (srcH-c.H)/2
	ok := x >= 0 && y >= 0 && c.W > 0 && c.H > 0 && x+c.W <= srcW && y+c.H <= srcH
	return x, y, c.W, c.H, ok
}

// RandomCrop samples one crop origin per clip (all frames share it, as VDL
// training requires temporally consistent spatial augmentation).
type RandomCrop struct {
	W, H int
}

// Name implements Op.
func (c *RandomCrop) Name() string { return "random_crop" }

// Signature implements Op.
func (c *RandomCrop) Signature() string { return fmt.Sprintf("random_crop(%dx%d)", c.W, c.H) }

// Deterministic implements Op.
func (c *RandomCrop) Deterministic() bool { return false }

// Apply implements Op.
func (c *RandomCrop) Apply(clip *frame.Clip, rng *rand.Rand) (*frame.Clip, error) {
	if rng == nil {
		return nil, fmt.Errorf("random_crop: nil rng")
	}
	w, h, _ := clip.Geometry()
	if c.W > w || c.H > h {
		return nil, fmt.Errorf("random_crop: %dx%d exceeds frame %dx%d", c.W, c.H, w, h)
	}
	x := rng.Intn(w - c.W + 1)
	y := rng.Intn(h - c.H + 1)
	fixed := &Crop{X: x, Y: y, W: c.W, H: c.H}
	return fixed.Apply(clip, nil)
}

// Region implements RegionOp: the window is random, so it cannot be
// compared until plan-time lowering fixes it (ok=false).
func (c *RandomCrop) Region(srcW, srcH int) (int, int, int, int, bool) {
	return 0, 0, 0, 0, false
}

// window implements windowed. The error preconditions (nil rng,
// oversized crop) are checked before any draw, so a fallback to Apply
// reproduces the same failure with the random stream untouched; on
// success the origin is drawn in exactly Apply's order (x then y).
func (c *RandomCrop) window(srcW, srcH int, rng *rand.Rand) (int, int, int, int, bool) {
	if rng == nil || c.W <= 0 || c.H <= 0 || c.W > srcW || c.H > srcH {
		return 0, 0, 0, 0, false
	}
	x := rng.Intn(srcW - c.W + 1)
	y := rng.Intn(srcH - c.H + 1)
	return x, y, c.W, c.H, true
}

// HFlip mirrors frames horizontally, either always (Prob >= 1) or with the
// given probability per clip.
type HFlip struct {
	Prob float64
}

// Name implements Op.
func (h *HFlip) Name() string { return "hflip" }

// Signature implements Op.
func (h *HFlip) Signature() string { return fmt.Sprintf("hflip(%.3f)", h.Prob) }

// Deterministic implements Op.
func (h *HFlip) Deterministic() bool { return h.Prob >= 1 || h.Prob <= 0 }

// Apply implements Op.
func (h *HFlip) Apply(clip *frame.Clip, rng *rand.Rand) (*frame.Clip, error) {
	do := h.Prob >= 1
	if !h.Deterministic() {
		if rng == nil {
			return nil, fmt.Errorf("hflip: nil rng for stochastic flip")
		}
		do = rng.Float64() < h.Prob
	}
	if !do {
		return clip, nil // identity: callers must not mutate returned clips
	}
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		g := frame.New(f.W, f.H, f.C)
		// Planes are stored back to back, so Pix is f.H*f.C rows of f.W.
		for r := 0; r < len(f.Pix); r += f.W {
			src := f.Pix[r : r+f.W]
			dst := g.Pix[r : r+f.W]
			// The i bound lets the compiler drop dst's bounds check.
			for i, j := 0, len(src)-1; i < len(dst) && j >= 0; i, j = i+1, j-1 {
				dst[i] = src[j]
			}
		}
		return g, nil
	})
}

// VFlip mirrors frames vertically with probability Prob.
type VFlip struct {
	Prob float64
}

// Name implements Op.
func (v *VFlip) Name() string { return "vflip" }

// Signature implements Op.
func (v *VFlip) Signature() string { return fmt.Sprintf("vflip(%.3f)", v.Prob) }

// Deterministic implements Op.
func (v *VFlip) Deterministic() bool { return v.Prob >= 1 || v.Prob <= 0 }

// Apply implements Op.
func (v *VFlip) Apply(clip *frame.Clip, rng *rand.Rand) (*frame.Clip, error) {
	do := v.Prob >= 1
	if !v.Deterministic() {
		if rng == nil {
			return nil, fmt.Errorf("vflip: nil rng for stochastic flip")
		}
		do = rng.Float64() < v.Prob
	}
	if !do {
		return clip, nil // identity: callers must not mutate returned clips
	}
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		g := frame.New(f.W, f.H, f.C)
		for c := 0; c < f.C; c++ {
			src := f.Plane(c)
			dst := g.Plane(c)
			for y := 0; y < f.H; y++ {
				copy(dst[y*f.W:(y+1)*f.W], src[(f.H-1-y)*f.W:(f.H-y)*f.W])
			}
		}
		return g, nil
	})
}

// Rotate90 rotates every frame by Turns quarter-turns clockwise.
type Rotate90 struct {
	Turns int
}

// Name implements Op.
func (r *Rotate90) Name() string { return "rotate90" }

// Signature implements Op.
func (r *Rotate90) Signature() string { return fmt.Sprintf("rotate90(%d)", ((r.Turns%4)+4)%4) }

// Deterministic implements Op.
func (r *Rotate90) Deterministic() bool { return true }

// Apply implements Op.
func (r *Rotate90) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	turns := ((r.Turns % 4) + 4) % 4
	if turns == 0 {
		return clip, nil // identity: callers must not mutate returned clips
	}
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		g := f
		for t := 0; t < turns; t++ {
			g = rotateCW(g)
		}
		return g, nil
	})
}

func rotateCW(f *frame.Frame) *frame.Frame {
	g := frame.New(f.H, f.W, f.C)
	for c := 0; c < f.C; c++ {
		src := f.Plane(c)
		dst := g.Plane(c)
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				// (x, y) -> (H-1-y, x) in the rotated frame of width f.H.
				dst[x*g.W+(f.H-1-y)] = src[y*f.W+x]
			}
		}
	}
	return g
}

// ColorJitter perturbs brightness and contrast. Brightness/Contrast give
// the maximum relative perturbation (e.g. 0.2 means ±20%), sampled once per
// clip so all frames shift together.
type ColorJitter struct {
	Brightness float64
	Contrast   float64
}

// Name implements Op.
func (j *ColorJitter) Name() string { return "color_jitter" }

// Signature implements Op.
func (j *ColorJitter) Signature() string {
	return fmt.Sprintf("color_jitter(%.3f,%.3f)", j.Brightness, j.Contrast)
}

// Deterministic implements Op.
func (j *ColorJitter) Deterministic() bool { return j.Brightness == 0 && j.Contrast == 0 }

// Apply implements Op.
func (j *ColorJitter) Apply(clip *frame.Clip, rng *rand.Rand) (*frame.Clip, error) {
	if j.Deterministic() {
		return clip, nil // identity: callers must not mutate returned clips
	}
	if rng == nil {
		return nil, fmt.Errorf("color_jitter: nil rng")
	}
	bright := 1 + (rng.Float64()*2-1)*j.Brightness
	contrast := 1 + (rng.Float64()*2-1)*j.Contrast
	return Jitter(clip, bright, contrast)
}

// Jitter maps every sample v of clip to (v-128)*contrast+128, scaled by
// bright and clamped to [0,255], into fresh frames: ColorJitter's
// transform for factors already drawn.
func Jitter(clip *frame.Clip, bright, contrast float64) (*frame.Clip, error) {
	var lut [256]byte
	for i := range lut {
		v := (float64(i)-128)*contrast + 128
		v *= bright
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		lut[i] = byte(v)
	}
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		g := frame.New(f.W, f.H, f.C)
		for i, v := range f.Pix {
			g.Pix[i] = lut[v]
		}
		return g, nil
	})
}

// Grayscale averages channels into a single-channel clip.
type Grayscale struct{}

// Name implements Op.
func (g *Grayscale) Name() string { return "grayscale" }

// Signature implements Op.
func (g *Grayscale) Signature() string { return "grayscale()" }

// Deterministic implements Op.
func (g *Grayscale) Deterministic() bool { return true }

// Apply implements Op.
func (g *Grayscale) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		out := frame.New(f.W, f.H, 1)
		n := f.W * f.H
		for i := 0; i < n; i++ {
			sum := 0
			for c := 0; c < f.C; c++ {
				sum += int(f.Pix[c*n+i])
			}
			out.Pix[i] = byte(sum / f.C)
		}
		return out, nil
	})
}

// Normalize is a placeholder for float normalization in real frameworks;
// on uint8 data it recenters each channel to the given mean (0-255 scale).
type Normalize struct {
	Mean int
}

// Name implements Op.
func (n *Normalize) Name() string { return "normalize" }

// Signature implements Op.
func (n *Normalize) Signature() string { return fmt.Sprintf("normalize(%d)", n.Mean) }

// Deterministic implements Op.
func (n *Normalize) Deterministic() bool { return true }

// Apply implements Op.
func (n *Normalize) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		g := frame.New(f.W, f.H, f.C)
		for c := 0; c < f.C; c++ {
			normalizePlane(g.Plane(c), f.Plane(c), n.Mean)
		}
		return g, nil
	})
}

// normalizePlane recenters src's samples to the target mean, writing into
// dst.
func normalizePlane(dst, src []byte, target int) {
	var sum int64
	for _, v := range src {
		sum += int64(v)
	}
	mean := int(sum / int64(len(src)))
	shift := target - mean
	// One clamp table per plane replaces the per-sample branch pair; 256
	// entries amortize over the plane in a branch-free inner loop.
	var lut [256]byte
	for i := range lut {
		w := i + shift
		if w < 0 {
			w = 0
		} else if w > 255 {
			w = 255
		}
		lut[i] = byte(w)
	}
	for i, v := range src {
		dst[i] = lut[v]
	}
}

// InvSample reverses the temporal order of the clip — the "inv_sample"
// option from the paper's Figure 9 conditional-branch example.
type InvSample struct{}

// Name implements Op.
func (s *InvSample) Name() string { return "inv_sample" }

// Signature implements Op.
func (s *InvSample) Signature() string { return "inv_sample()" }

// Deterministic implements Op.
func (s *InvSample) Deterministic() bool { return true }

// Apply implements Op.
func (s *InvSample) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	// The reversed clip shares the input's frames: no op writes its input.
	out := make([]*frame.Frame, clip.Len())
	for i, f := range clip.Frames {
		out[clip.Len()-1-i] = f
	}
	return frame.NewClip(out)
}

// Pad adds a constant border around every frame (common before random
// crops, as in PyTorch's RandomCrop(padding=...)).
type Pad struct {
	// Left, Top, Right, Bottom are border widths in pixels.
	Left, Top, Right, Bottom int
	// Value fills the border.
	Value byte
}

// Name implements Op.
func (p *Pad) Name() string { return "pad" }

// Signature implements Op.
func (p *Pad) Signature() string {
	return fmt.Sprintf("pad(%d,%d,%d,%d,v%d)", p.Left, p.Top, p.Right, p.Bottom, p.Value)
}

// Deterministic implements Op.
func (p *Pad) Deterministic() bool { return true }

// Apply implements Op.
func (p *Pad) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	if p.Left < 0 || p.Top < 0 || p.Right < 0 || p.Bottom < 0 {
		return nil, fmt.Errorf("pad: negative border")
	}
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		w := f.W + p.Left + p.Right
		h := f.H + p.Top + p.Bottom
		g := frame.New(w, h, f.C)
		for i := range g.Pix {
			g.Pix[i] = p.Value
		}
		for c := 0; c < f.C; c++ {
			src := f.Plane(c)
			dst := g.Plane(c)
			for y := 0; y < f.H; y++ {
				copy(dst[(y+p.Top)*w+p.Left:(y+p.Top)*w+p.Left+f.W], src[y*f.W:(y+1)*f.W])
			}
		}
		return g, nil
	})
}

// Saturation scales chroma relative to the per-pixel channel mean:
// Factor 0 produces grayscale, 1 is identity, >1 boosts color. Requires a
// 3-channel clip.
type Saturation struct {
	Factor float64
}

// Name implements Op.
func (s *Saturation) Name() string { return "saturation" }

// Signature implements Op.
func (s *Saturation) Signature() string { return fmt.Sprintf("saturation(%.3f)", s.Factor) }

// Deterministic implements Op.
func (s *Saturation) Deterministic() bool { return true }

// Apply implements Op.
func (s *Saturation) Apply(clip *frame.Clip, _ *rand.Rand) (*frame.Clip, error) {
	if s.Factor < 0 {
		return nil, fmt.Errorf("saturation: negative factor")
	}
	return mapFrames(clip, func(f *frame.Frame) (*frame.Frame, error) {
		if f.C != 3 {
			return nil, fmt.Errorf("saturation: need 3 channels, got %d", f.C)
		}
		g := frame.New(f.W, f.H, 3)
		n := f.W * f.H
		r, gr, b := f.Plane(0), f.Plane(1), f.Plane(2)
		or, og, ob := g.Plane(0), g.Plane(1), g.Plane(2)
		for i := 0; i < n; i++ {
			mean := (float64(r[i]) + float64(gr[i]) + float64(b[i])) / 3
			mix := func(v byte) byte {
				x := mean + (float64(v)-mean)*s.Factor
				if x < 0 {
					x = 0
				} else if x > 255 {
					x = 255
				}
				return byte(x)
			}
			or[i], og[i], ob[i] = mix(r[i]), mix(gr[i]), mix(b[i])
		}
		return g, nil
	})
}
