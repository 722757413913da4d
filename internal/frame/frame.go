// Package frame provides the fundamental pixel-data types used throughout
// SAND: planar uint8 frames, clips (time-ordered frame sequences), and the
// basic arithmetic the codec and augmentation layers build on.
//
// A Frame is stored planar (all of channel 0, then channel 1, ...) because
// both the codec's spatial predictors and the augmentation kernels walk a
// single channel at a time; planar layout keeps those walks contiguous.
package frame

import (
	"errors"
	"fmt"
)

// Frame is a single decoded video frame with C planes of H*W uint8 samples.
type Frame struct {
	W, H, C int
	// Pix holds C*H*W samples, plane-major: Pix[c*H*W + y*W + x].
	Pix []byte
	// Index is the position of this frame in its source video, or -1 when
	// the frame is synthetic (e.g. produced by an augmentation merge).
	Index int
	// PTS is the presentation timestamp in milliseconds.
	PTS int64
}

// New allocates a zeroed frame of the given geometry.
func New(w, h, c int) *Frame {
	if w <= 0 || h <= 0 || c <= 0 {
		panic(fmt.Sprintf("frame: invalid geometry %dx%dx%d", w, h, c))
	}
	return &Frame{W: w, H: h, C: c, Pix: make([]byte, w*h*c), Index: -1}
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := &Frame{W: f.W, H: f.H, C: f.C, Pix: make([]byte, len(f.Pix)), Index: f.Index, PTS: f.PTS}
	copy(g.Pix, f.Pix)
	return g
}

// Plane returns the samples of channel c as a subslice of Pix.
func (f *Frame) Plane(c int) []byte {
	if c < 0 || c >= f.C {
		panic(fmt.Sprintf("frame: plane %d out of range [0,%d)", c, f.C))
	}
	return f.Pix[c*f.W*f.H : (c+1)*f.W*f.H]
}

// At returns the sample at (x, y) in channel c.
func (f *Frame) At(x, y, c int) byte {
	return f.Pix[c*f.W*f.H+y*f.W+x]
}

// Set writes the sample at (x, y) in channel c.
func (f *Frame) Set(x, y, c int, v byte) {
	f.Pix[c*f.W*f.H+y*f.W+x] = v
}

// Bytes returns the total pixel payload size in bytes.
func (f *Frame) Bytes() int { return len(f.Pix) }

// SameShape reports whether g has identical geometry to f.
func (f *Frame) SameShape(g *Frame) bool {
	return f.W == g.W && f.H == g.H && f.C == g.C
}

// Equal reports whether f and g have identical geometry and pixels.
func (f *Frame) Equal(g *Frame) bool {
	if !f.SameShape(g) {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != g.Pix[i] {
			return false
		}
	}
	return true
}

// SubRect copies the rectangle [x0,x0+w) x [y0,y0+h) into a new frame.
func (f *Frame) SubRect(x0, y0, w, h int) (*Frame, error) {
	if x0 < 0 || y0 < 0 || w <= 0 || h <= 0 || x0+w > f.W || y0+h > f.H {
		return nil, fmt.Errorf("frame: rect (%d,%d,%d,%d) outside %dx%d", x0, y0, w, h, f.W, f.H)
	}
	out := New(w, h, f.C)
	out.Index, out.PTS = f.Index, f.PTS
	for c := 0; c < f.C; c++ {
		src := f.Plane(c)
		dst := out.Plane(c)
		for y := 0; y < h; y++ {
			copy(dst[y*w:(y+1)*w], src[(y0+y)*f.W+x0:(y0+y)*f.W+x0+w])
		}
	}
	return out, nil
}

// Clip is a time-ordered sequence of frames with uniform geometry.
type Clip struct {
	Frames []*Frame
}

// ErrEmptyClip is returned by operations that need at least one frame.
var ErrEmptyClip = errors.New("frame: empty clip")

// NewClip builds a clip and validates that all frames share one geometry.
func NewClip(frames []*Frame) (*Clip, error) {
	if err := checkClip(frames); err != nil {
		return nil, err
	}
	return &Clip{Frames: frames}, nil
}

// checkClip is NewClip's validation: at least one frame, all of one
// geometry.
func checkClip(frames []*Frame) error {
	if len(frames) == 0 {
		return ErrEmptyClip
	}
	for i := 1; i < len(frames); i++ {
		if !frames[0].SameShape(frames[i]) {
			return fmt.Errorf("frame: clip frame %d geometry %dx%dx%d != frame 0 %dx%dx%d",
				i, frames[i].W, frames[i].H, frames[i].C, frames[0].W, frames[0].H, frames[0].C)
		}
	}
	return nil
}

// Len returns the number of frames in the clip.
func (c *Clip) Len() int { return len(c.Frames) }

// Bytes returns the total decoded payload size of the clip.
func (c *Clip) Bytes() int {
	n := 0
	for _, f := range c.Frames {
		n += f.Bytes()
	}
	return n
}

// Clone deep-copies the clip.
func (c *Clip) Clone() *Clip {
	out := &Clip{Frames: make([]*Frame, len(c.Frames))}
	for i, f := range c.Frames {
		out.Frames[i] = f.Clone()
	}
	return out
}

// Geometry returns the clip's uniform (w, h, c), or zeros if empty.
func (c *Clip) Geometry() (w, h, ch int) {
	if len(c.Frames) == 0 {
		return 0, 0, 0
	}
	f := c.Frames[0]
	return f.W, f.H, f.C
}

// Batch is a mini-batch of clips ready for (simulated) GPU consumption,
// annotated with the iteration it belongs to.
type Batch struct {
	Clips     []*Clip
	Epoch     int
	Iteration int
	// Labels carries one per-clip task label (classification index or a
	// free-form string for captioning-style tasks).
	Labels []string
}

// Bytes returns the total payload size of the batch.
func (b *Batch) Bytes() int {
	n := 0
	for _, c := range b.Clips {
		n += c.Bytes()
	}
	return n
}

// Len returns the number of clips (samples) in the batch.
func (b *Batch) Len() int { return len(b.Clips) }

// PoolStats reports zero frame-buffer pool traffic. Frame buffers are
// plain allocations; the stub stays until bench/ stops reading it.
func PoolStats() map[string]int64 {
	return map[string]int64{"frame.pool.gets": 0, "frame.pool.reuses": 0}
}
