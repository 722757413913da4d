package codec

import (
	"encoding/binary"
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
// last reconstructed frame as its reference, so sequential access is O(1)
// per frame; random access seeks to the preceding keyframe and rolls
// forward (decode amplification). A Decoder is not safe for concurrent
// use; create one per goroutine and share the immutable *Video.
//
// Every frame is reconstructed in place in its destination: the payload
// inflates straight into the frame's pixels, which then become the
// I-frame row prefix sums or the P-frame sum with the reference. The
// decoder never writes its reference. Frame rolls forward through two
// internal buffers and copies out only the frame the caller asked for;
// DecodeNext decodes into a frame the caller owns, which then serves as
// the reference with no copy at all.
type Decoder struct {
	v     *Video
	stats *Stats
	// last is the reference (the most recently reconstructed or primed
	// frame), lastIdx its number. It aliases bufA, bufB or a caller's
	// frame, and is only ever read.
	last       *frame.Frame
	lastIdx    int
	bufA, bufB *frame.Frame
}

// NewDecoder creates a decoder over v. stats may be nil.
func NewDecoder(v *Video, stats *Stats) *Decoder {
	return &Decoder{v: v, stats: stats, lastIdx: -1}
}

// target returns the internal reconstruction buffer that does not hold
// d.last, allocating lazily. Its contents are fully overwritten by
// reconstruct before anyone reads them.
func (d *Decoder) target() *frame.Frame {
	if d.bufA == nil {
		d.bufA = frame.New(d.v.W, d.v.H, d.v.C)
	}
	if d.last == d.bufA {
		if d.bufB == nil {
			d.bufB = frame.New(d.v.W, d.v.H, d.v.C)
		}
		return d.bufB
	}
	return d.bufA
}

// checkGeometry refuses a frame whose shape differs from the video's.
func (d *Decoder) checkGeometry(f *frame.Frame) error {
	if f == nil || f.W != d.v.W || f.H != d.v.H || f.C != d.v.C || len(f.Pix) != d.v.W*d.v.H*d.v.C {
		return fmt.Errorf("codec: frame geometry does not match the video's %dx%dx%d", d.v.W, d.v.H, d.v.C)
	}
	return nil
}

// Prime seeds the decoder's reference with an already-reconstructed frame
// (which must be the bit-exact pixels of frame idx), so decoding can
// continue from idx+1 without rolling forward from the keyframe. The
// decoder holds ref by alias and never writes it; the caller must not
// change it while it is the reference. The decoded-GOP cache uses this to
// roll forward from the nearest frame it holds.
func (d *Decoder) Prime(ref *frame.Frame, idx int) error {
	if idx < 0 || idx >= d.v.FrameCount {
		return fmt.Errorf("codec: prime index %d out of range [0,%d)", idx, d.v.FrameCount)
	}
	if err := d.checkGeometry(ref); err != nil {
		return err
	}
	d.last, d.lastIdx = ref, idx
	return nil
}

// DecodeNext decodes frame i into dst, which the caller owns and which
// becomes the decoder's reference: the caller must not change it while
// it is. Frame i must be an I-frame or the successor of the reference.
// DecodeNext refuses a dst of the wrong geometry or one that shares its
// pixels with the reference. On error dst's pixels are unspecified and
// the reference is unchanged.
func (d *Decoder) DecodeNext(i int, dst *frame.Frame) error {
	if i < 0 || i >= d.v.FrameCount {
		return fmt.Errorf("codec: frame %d out of range [0,%d)", i, d.v.FrameCount)
	}
	if err := d.checkGeometry(dst); err != nil {
		return err
	}
	if d.last != nil && &dst.Pix[0] == &d.last.Pix[0] {
		return fmt.Errorf("codec: frame %d destination aliases the reference frame %d", i, d.lastIdx)
	}
	if d.stats != nil {
		d.stats.FramesRequested.Add(1)
	}
	return d.reconstruct(i, dst)
}

// reconstruct decodes frame i into dst, which must have the video's
// geometry and must not be the reference, and makes dst the reference.
// It is the one reconstruction routine: the payload inflates straight
// into dst.Pix, and the prediction is undone there in place.
func (d *Decoder) reconstruct(i int, dst *frame.Frame) error {
	e := d.v.index[i]
	if e.ftype == PFrame && (d.last == nil || d.lastIdx != i-1) {
		return fmt.Errorf("codec: P-frame %d decoded without reference %d", i, i-1)
	}
	data := d.v.Data
	if e.offset+4 > uint64(len(data)) {
		return fmt.Errorf("codec: frame %d offset corrupt", i)
	}
	sz := int(binary.LittleEndian.Uint32(data[e.offset:]))
	start := int(e.offset) + 4
	if sz > len(data)-start {
		return fmt.Errorf("codec: frame %d payload truncated", i)
	}
	if err := inflate.Raw(dst.Pix, data[start:start+sz]); err != nil {
		return fmt.Errorf("codec: frame %d: %w", i, err)
	}
	if e.ftype == IFrame {
		frame.UndoSub(dst.Pix, d.v.W)
	} else {
		addReference(dst.Pix, d.last.Pix)
	}
	dst.Index = i
	dst.PTS = int64(i) * 1000 / int64(d.v.FPS)
	if d.stats != nil {
		d.stats.FramesDecoded.Add(1)
		d.stats.BytesInflated.Add(int64(sz))
	}
	d.last, d.lastIdx = dst, i
	return nil
}

// hiBits selects the top bit of each byte of a word.
const hiBits = 0x8080808080808080

// addReference undoes temporal prediction in place, dst[j] += ref[j]
// modulo 256. ref must be at least as long as dst. Whole 64-byte blocks
// take eight add8 steps, which the compiler proves in bounds; a byte loop
// takes the tail.
func addReference(dst, ref []byte) {
	ref = ref[:len(dst)]
	for len(dst) >= 64 && len(ref) >= 64 {
		d, r := dst[:64], ref[:64]
		add8(d[0:], r[0:])
		add8(d[8:], r[8:])
		add8(d[16:], r[16:])
		add8(d[24:], r[24:])
		add8(d[32:], r[32:])
		add8(d[40:], r[40:])
		add8(d[48:], r[48:])
		add8(d[56:], r[56:])
		dst, ref = dst[64:], ref[64:]
	}
	ref = ref[:len(dst)]
	for j := range dst {
		dst[j] += ref[j]
	}
}

// add8 adds the first eight bytes of r to those of d as one uint64: the
// low seven bits of every byte add without a carry crossing into the next
// byte, and the top bits, whose carry out is discarded, are restored by
// xor.
func add8(d, r []byte) {
	x := binary.LittleEndian.Uint64(d)
	y := binary.LittleEndian.Uint64(r)
	binary.LittleEndian.PutUint64(d, ((x&^hiBits)+(y&^hiBits))^((x^y)&hiBits))
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
		// decoder state. A primed reference may carry another number.
		f := d.last.Clone()
		f.Index, f.PTS = i, int64(i)*1000/int64(d.v.FPS)
		return f, nil
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
	for j := start; j <= i; j++ {
		if err := d.reconstruct(j, d.target()); err != nil {
			return nil, err
		}
	}
	return d.last.Clone(), nil
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

// DecodeAll reconstructs the full video as a clip, each frame decoded in
// place into its own buffer. The clip belongs to the caller: the decoder
// keeps no reference into it.
func (d *Decoder) DecodeAll() (*frame.Clip, error) {
	frames := make([]*frame.Frame, d.v.FrameCount)
	for i := range frames {
		frames[i] = frame.New(d.v.W, d.v.H, d.v.C)
		if err := d.DecodeNext(i, frames[i]); err != nil {
			return nil, err
		}
	}
	d.last, d.lastIdx = nil, -1
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
