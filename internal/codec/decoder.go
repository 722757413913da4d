package codec

import (
	"fmt"
	"sync/atomic"

	"sand/internal/frame"
	"sand/internal/inflate"
)

// Stats counts decoder work so experiments can report operation counts
// (Figure 16) and decode amplification. All fields are updated atomically
// and safe to read concurrently.
type Stats struct {
	// FramesDecoded counts every frame reconstruction, including frames
	// decoded only to satisfy inter-frame dependencies.
	FramesDecoded atomic.Int64
	// FramesRequested counts frames the caller actually asked for.
	FramesRequested atomic.Int64
	// BytesInflated counts compressed payload bytes consumed.
	BytesInflated atomic.Int64
	// Seeks counts random-access operations (jumps to a keyframe).
	Seeks atomic.Int64
}

// Amplification returns decoded/requested, the decode-amplification ratio.
func (s *Stats) Amplification() float64 {
	req := s.FramesRequested.Load()
	if req == 0 {
		return 0
	}
	return float64(s.FramesDecoded.Load()) / float64(req)
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.FramesDecoded.Store(0)
	s.FramesRequested.Store(0)
	s.BytesInflated.Store(0)
	s.Seeks.Store(0)
}

// Decoder reconstructs frames from a TVC container. A Decoder keeps the
// last reconstructed frame so sequential access is O(1) per frame; random
// access seeks to the preceding keyframe and rolls forward (decode
// amplification). A Decoder is not safe for concurrent use; create one per
// goroutine and share the immutable *Video.
//
// Reconstruction ping-pongs between two internal pooled buffers, so a
// roll-forward of N frames performs zero per-frame allocations; only the
// frames the caller actually requests are copied out (Frame returns a
// clone). Call Close when done to return the buffers to the frame pool.
type Decoder struct {
	v     *Video
	stats *Stats
	// last is the most recently reconstructed frame, lastIdx its number.
	// last always aliases bufA or bufB.
	last       *frame.Frame
	lastIdx    int
	scratch    []byte
	bufA, bufB *frame.Frame
}

// NewDecoder creates a decoder over v. stats may be nil.
func NewDecoder(v *Video, stats *Stats) *Decoder {
	return &Decoder{v: v, stats: stats, lastIdx: -1, scratch: make([]byte, v.W*v.H*v.C)}
}

// Video returns the container being decoded.
func (d *Decoder) Video() *Video { return d.v }

// target returns the internal reconstruction buffer that does not hold
// d.last, allocating lazily. Its contents are fully overwritten by the
// reconstruction kernels before anyone reads them.
func (d *Decoder) target() *frame.Frame {
	if d.bufA == nil {
		d.bufA = frame.NewPooled(d.v.W, d.v.H, d.v.C)
	}
	if d.last == d.bufA {
		if d.bufB == nil {
			d.bufB = frame.NewPooled(d.v.W, d.v.H, d.v.C)
		}
		return d.bufB
	}
	return d.bufA
}

// Prime seeds the decoder's reference state with an already-reconstructed
// frame (which must be the bit-exact pixels of frame idx), so decoding
// can continue from idx+1 without rolling forward from the keyframe. The
// decoded-GOP cache uses this to extend a partially decoded GOP.
func (d *Decoder) Prime(ref *frame.Frame, idx int) error {
	if idx < 0 || idx >= d.v.FrameCount {
		return fmt.Errorf("codec: prime index %d out of range [0,%d)", idx, d.v.FrameCount)
	}
	if ref == nil || ref.W != d.v.W || ref.H != d.v.H || ref.C != d.v.C {
		return fmt.Errorf("codec: prime frame geometry mismatch")
	}
	t := d.target()
	copy(t.Pix, ref.Pix)
	t.Index = idx
	t.PTS = int64(idx) * 1000 / int64(d.v.FPS)
	d.last, d.lastIdx = t, idx
	return nil
}

// Close returns the decoder's internal buffers to the frame pool. The
// decoder must not be used afterwards.
func (d *Decoder) Close() {
	d.last = nil
	d.lastIdx = -1
	if d.bufA != nil {
		frame.Recycle(d.bufA)
		d.bufA = nil
	}
	if d.bufB != nil {
		frame.Recycle(d.bufB)
		d.bufB = nil
	}
}

// decodeOne reconstructs frame i assuming its reference (i-1, for P-frames)
// is already in d.last.
func (d *Decoder) decodeOne(i int) (*frame.Frame, error) {
	e := d.v.index[i]
	data := d.v.Data
	if e.offset+4 > uint64(len(data)) {
		return nil, fmt.Errorf("codec: frame %d offset corrupt", i)
	}
	sz := int(uint32(data[e.offset]) | uint32(data[e.offset+1])<<8 | uint32(data[e.offset+2])<<16 | uint32(data[e.offset+3])<<24)
	start := int(e.offset) + 4
	if start+sz > len(data) {
		return nil, fmt.Errorf("codec: frame %d payload truncated", i)
	}
	if err := inflate.Raw(d.scratch, data[start:start+sz]); err != nil {
		return nil, fmt.Errorf("codec: frame %d: %w", i, err)
	}
	// Reconstruct into the ping-pong buffer not holding the reference;
	// both kernels below overwrite every sample.
	f := d.target()
	f.Index = i
	f.PTS = int64(i) * 1000 / int64(d.v.FPS)
	switch e.ftype {
	case IFrame:
		reconstructIntra(f, d.scratch)
	case PFrame:
		if d.last == nil || d.lastIdx != i-1 {
			return nil, fmt.Errorf("codec: P-frame %d decoded without reference %d", i, i-1)
		}
		for j := range f.Pix {
			f.Pix[j] = d.scratch[j] + d.last.Pix[j]
		}
	}
	if d.stats != nil {
		d.stats.FramesDecoded.Add(1)
		d.stats.BytesInflated.Add(int64(sz))
	}
	d.last, d.lastIdx = f, i
	return f, nil
}

func reconstructIntra(f *frame.Frame, residual []byte) {
	w := f.W
	for c := 0; c < f.C; c++ {
		plane := f.Plane(c)
		res := residual[c*f.W*f.H : (c+1)*f.W*f.H]
		for y := 0; y < f.H; y++ {
			row := plane[y*w : (y+1)*w]
			rrow := res[y*w : (y+1)*w]
			prev := byte(0)
			for x := range row {
				row[x] = rrow[x] + prev
				prev = row[x]
			}
		}
	}
}

// Frame returns frame i, decoding from the nearest usable reference. This
// is the random-access entry point: if the decoder's state cannot reach i
// by rolling forward, it seeks to the keyframe at or before i.
func (d *Decoder) Frame(i int) (*frame.Frame, error) {
	if i < 0 || i >= d.v.FrameCount {
		return nil, fmt.Errorf("codec: frame %d out of range [0,%d)", i, d.v.FrameCount)
	}
	if d.stats != nil {
		d.stats.FramesRequested.Add(1)
	}
	if d.lastIdx == i && d.last != nil {
		// Already decoded; return a copy so the caller cannot corrupt
		// decoder state.
		return d.last.Clone(), nil
	}
	start := d.lastIdx + 1
	if d.last == nil || i < start {
		k, err := d.v.KeyframeBefore(i)
		if err != nil {
			return nil, err
		}
		start = k
		d.last, d.lastIdx = nil, -1
		if d.stats != nil {
			d.stats.Seeks.Add(1)
		}
	} else if k, err := d.v.KeyframeBefore(i); err == nil && k >= start {
		// A keyframe lies between our state and the target; jumping to it
		// is cheaper than rolling forward across the GOP boundary.
		start = k
		d.last, d.lastIdx = nil, -1
		if d.stats != nil {
			d.stats.Seeks.Add(1)
		}
	}
	var f *frame.Frame
	for j := start; j <= i; j++ {
		var err error
		f, err = d.decodeOne(j)
		if err != nil {
			return nil, err
		}
	}
	return f.Clone(), nil
}

// Frames decodes the given frame indices (which must be ascending) with a
// single forward pass per GOP run, returning them in order. It is the bulk
// interface the materialization engine uses: consecutive indices inside a
// GOP share the roll-forward work.
func (d *Decoder) Frames(indices []int) ([]*frame.Frame, error) {
	out := make([]*frame.Frame, 0, len(indices))
	lastSeen := -1
	for _, i := range indices {
		if i <= lastSeen {
			return nil, fmt.Errorf("codec: Frames requires strictly ascending indices (%d after %d)", i, lastSeen)
		}
		lastSeen = i
		f, err := d.Frame(i)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// DecodeAll reconstructs the full video as a clip.
func (d *Decoder) DecodeAll() (*frame.Clip, error) {
	frames := make([]*frame.Frame, 0, d.v.FrameCount)
	for i := 0; i < d.v.FrameCount; i++ {
		f, err := d.Frame(i)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frame.NewClip(frames)
}

// PlanCost returns the total number of frame decodes needed to extract the
// given ascending indices in one pass — the cost model the planner and the
// simulator share. It accounts for GOP-boundary seeks exactly like the
// real decoder.
func PlanCost(v *Video, indices []int) (int, error) {
	cost := 0
	pos := -1 // last decoded frame, -1 = no state
	lastSeen := -1
	for _, i := range indices {
		if i <= lastSeen {
			return 0, fmt.Errorf("codec: PlanCost requires strictly ascending indices (%d after %d)", i, lastSeen)
		}
		lastSeen = i
		if i < 0 || i >= v.FrameCount {
			return 0, fmt.Errorf("codec: index %d out of range [0,%d)", i, v.FrameCount)
		}
		k, err := v.KeyframeBefore(i)
		if err != nil {
			return 0, err
		}
		start := pos + 1
		if pos < 0 || k > pos {
			start = k
		}
		if i >= start {
			cost += i - start + 1
		}
		pos = i
	}
	return cost, nil
}
