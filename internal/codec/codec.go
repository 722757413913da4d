// Package codec implements TVC ("toy video codec"), a real, lossless video
// codec with the structural properties that drive SAND's design:
//
//   - Group-of-pictures (GOP) structure: every GOP starts with an
//     intra-coded I-frame; the remaining frames are P-frames predicted from
//     their immediate predecessor.
//   - Decode amplification: random access to frame n requires decoding
//     every frame from the preceding I-frame through n, exactly the
//     inter-frame dependency that makes sparse frame sampling expensive in
//     H.264/VP9 and that SAND's reuse planning amortizes.
//   - Seekable container: a frame index maps frame numbers to byte offsets
//     and frame types, so a decoder can jump to the right GOP without
//     scanning the stream.
//
// I-frames use left-neighbour spatial prediction; P-frames use temporal
// prediction against the previous reconstructed frame. Residuals are
// entropy-coded with DEFLATE: compress/flate writes them, and
// internal/inflate decodes each payload in one call straight into the
// destination frame, whose size the container header fixes; the decoder
// then undoes the prediction in place. Encoding is lossless: the decoder
// reconstructs bit-exact pixels, which the test suite verifies against a
// compress/flate reference.
package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"sand/internal/frame"
	"sand/internal/inflate"
)

// FrameType distinguishes intra-coded from predicted frames.
type FrameType uint8

const (
	// IFrame is intra-coded: decodable without reference to other frames.
	IFrame FrameType = iota
	// PFrame is predicted from the immediately preceding frame.
	PFrame
)

func (t FrameType) String() string {
	switch t {
	case IFrame:
		return "I"
	case PFrame:
		return "P"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

const (
	containerMagic = 0x54564331 // "TVC1"
	headerSize     = 36
	indexEntrySize = 9 // offset(8) + type(1)
	maxDimension   = 1 << 16
	// DefaultGOP mirrors the ~1s keyframe interval typical of the
	// H.264-encoded web video the paper's datasets use (30 fps).
	DefaultGOP = 30
)

// EncodeParams configures the encoder.
type EncodeParams struct {
	// GOP is the keyframe interval: frame i is an I-frame iff i%GOP == 0.
	GOP int
	// FPS is stored in the container for PTS metadata.
	FPS int
	// Level selects the flate compression level (flate.DefaultCompression
	// when zero).
	Level int
}

func (p *EncodeParams) normalize() error {
	if p.GOP <= 0 {
		p.GOP = DefaultGOP
	}
	if p.FPS <= 0 {
		p.FPS = 30
	}
	if p.Level == 0 {
		p.Level = flate.DefaultCompression
	}
	if p.Level < flate.HuffmanOnly || p.Level > flate.BestCompression {
		return fmt.Errorf("codec: flate level %d out of range", p.Level)
	}
	return nil
}

// Video is an encoded TVC bitstream plus its parsed metadata.
type Video struct {
	W, H, C    int
	FPS        int
	GOP        int
	FrameCount int
	// Data is the complete container: header, index, frame payloads.
	Data []byte
	// index[i] = (offset into Data, frame type) for frame i.
	index []indexEntry
}

type indexEntry struct {
	offset uint64
	ftype  FrameType
}

// Bytes returns the encoded container size.
func (v *Video) Bytes() int { return len(v.Data) }

// Type returns the frame type of frame i.
func (v *Video) Type(i int) (FrameType, error) {
	if i < 0 || i >= v.FrameCount {
		return 0, fmt.Errorf("codec: frame %d out of range [0,%d)", i, v.FrameCount)
	}
	return v.index[i].ftype, nil
}

// KeyframeBefore returns the index of the I-frame at or before frame i.
func (v *Video) KeyframeBefore(i int) (int, error) {
	if i < 0 || i >= v.FrameCount {
		return 0, fmt.Errorf("codec: frame %d out of range [0,%d)", i, v.FrameCount)
	}
	for j := i; j >= 0; j-- {
		if v.index[j].ftype == IFrame {
			return j, nil
		}
	}
	return 0, errors.New("codec: corrupt index: no keyframe at frame 0")
}

// DecodeCost returns how many frames must be decoded to reconstruct frame
// i via random access — the decode-amplification factor SAND's planner
// reasons about.
func (v *Video) DecodeCost(i int) (int, error) {
	k, err := v.KeyframeBefore(i)
	if err != nil {
		return 0, err
	}
	return i - k + 1, nil
}

// Encode compresses a clip into a TVC container.
func Encode(clip *frame.Clip, params EncodeParams) (*Video, error) {
	if err := params.normalize(); err != nil {
		return nil, err
	}
	return encode(clip, params)
}

// encode is Encode with params taken as given, so Level 0 means stored
// blocks (flate.NoCompression) rather than the default level.
func encode(clip *frame.Clip, params EncodeParams) (*Video, error) {
	if clip == nil || clip.Len() == 0 {
		return nil, frame.ErrEmptyClip
	}
	w, h, c := clip.Geometry()

	var payloads [][]byte
	index := make([]indexEntry, 0, clip.Len())
	var prev *frame.Frame
	residual := make([]byte, w*h*c)
	for i, f := range clip.Frames {
		var ft FrameType
		if i%params.GOP == 0 {
			ft = IFrame
			predictIntra(f, residual)
		} else {
			ft = PFrame
			predictTemporal(f, prev, residual)
		}
		comp, err := deflateBytes(residual, params.Level)
		if err != nil {
			return nil, fmt.Errorf("codec: frame %d: %w", i, err)
		}
		payloads = append(payloads, comp)
		index = append(index, indexEntry{ftype: ft})
		prev = f
	}

	// Assemble container: header | index | payloads (each length-prefixed).
	indexBytes := headerSize + indexEntrySize*len(index)
	off := uint64(indexBytes)
	for i := range index {
		index[i].offset = off
		off += 4 + uint64(len(payloads[i]))
	}

	buf := make([]byte, 0, off)
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:], containerMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(w))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(h))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(c))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(params.FPS))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(params.GOP))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(clip.Len()))
	binary.LittleEndian.PutUint64(hdr[28:], off) // total size, sanity check
	buf = append(buf, hdr...)
	for _, e := range index {
		var ent [indexEntrySize]byte
		binary.LittleEndian.PutUint64(ent[0:], e.offset)
		ent[8] = byte(e.ftype)
		buf = append(buf, ent[:]...)
	}
	for _, p := range payloads {
		var sz [4]byte
		binary.LittleEndian.PutUint32(sz[:], uint32(len(p)))
		buf = append(buf, sz[:]...)
		buf = append(buf, p...)
	}

	return &Video{
		W: w, H: h, C: c,
		FPS: params.FPS, GOP: params.GOP,
		FrameCount: clip.Len(),
		Data:       buf,
		index:      index,
	}, nil
}

// Parse validates a TVC container and returns its metadata without
// decoding any frames.
func Parse(data []byte) (*Video, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("codec: container too small (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != containerMagic {
		return nil, fmt.Errorf("codec: bad magic %#x", binary.LittleEndian.Uint32(data[0:]))
	}
	v := &Video{
		W:          int(binary.LittleEndian.Uint32(data[4:])),
		H:          int(binary.LittleEndian.Uint32(data[8:])),
		C:          int(binary.LittleEndian.Uint32(data[12:])),
		FPS:        int(binary.LittleEndian.Uint32(data[16:])),
		GOP:        int(binary.LittleEndian.Uint32(data[20:])),
		FrameCount: int(binary.LittleEndian.Uint32(data[24:])),
		Data:       data,
	}
	total := binary.LittleEndian.Uint64(data[28:])
	if v.W <= 0 || v.H <= 0 || v.C <= 0 || v.W > maxDimension || v.H > maxDimension || v.C > 16 ||
		v.FPS <= 0 || v.GOP <= 0 || v.FrameCount <= 0 {
		return nil, fmt.Errorf("codec: implausible header %dx%dx%d fps %d gop %d frames %d",
			v.W, v.H, v.C, v.FPS, v.GOP, v.FrameCount)
	}
	if total != uint64(len(data)) {
		return nil, fmt.Errorf("codec: size mismatch: header says %d, have %d", total, len(data))
	}
	need := headerSize + indexEntrySize*v.FrameCount
	if len(data) < need {
		return nil, fmt.Errorf("codec: index truncated")
	}
	v.index = make([]indexEntry, v.FrameCount)
	for i := range v.index {
		base := headerSize + i*indexEntrySize
		v.index[i] = indexEntry{
			offset: binary.LittleEndian.Uint64(data[base:]),
			ftype:  FrameType(data[base+8]),
		}
		if v.index[i].ftype > PFrame {
			return nil, fmt.Errorf("codec: frame %d has unknown type %d", i, data[base+8])
		}
		if v.index[i].offset+4 > uint64(len(data)) {
			return nil, fmt.Errorf("codec: frame %d offset %d out of range", i, v.index[i].offset)
		}
	}
	if v.index[0].ftype != IFrame {
		return nil, errors.New("codec: stream does not start with an I-frame")
	}
	// The header must not size the decoder's buffers by itself: every
	// frame inflates to W·H·C bytes, which frame 0's payload must be able
	// to hold.
	off := v.index[0].offset
	sz := uint64(binary.LittleEndian.Uint32(data[off:]))
	if sz > uint64(len(data))-off-4 {
		return nil, errors.New("codec: frame 0 payload truncated")
	}
	if samples := uint64(v.W * v.H * v.C); samples > inflate.MaxRatio*sz {
		return nil, fmt.Errorf("codec: %dx%dx%d frames exceed what frame 0's %d-byte payload can hold", v.W, v.H, v.C, sz)
	}
	return v, nil
}

// predictIntra writes the left-neighbour residual of f into dst.
func predictIntra(f *frame.Frame, dst []byte) {
	w := f.W
	for c := 0; c < f.C; c++ {
		plane := f.Plane(c)
		out := dst[c*f.W*f.H : (c+1)*f.W*f.H]
		for y := 0; y < f.H; y++ {
			row := plane[y*w : (y+1)*w]
			orow := out[y*w : (y+1)*w]
			prev := byte(0)
			for x, v := range row {
				orow[x] = v - prev
				prev = v
			}
		}
	}
}

// predictTemporal writes the frame-difference residual of f vs ref into dst.
func predictTemporal(f, ref *frame.Frame, dst []byte) {
	for i := range f.Pix {
		dst[i] = f.Pix[i] - ref.Pix[i]
	}
}

// deflaterPools Reset-reuse flate writers across frames: encoding
// otherwise rebuilds a ~64KB flate state machine for every frame payload.
var deflaterPools sync.Map // flate level -> *sync.Pool of *flate.Writer

func deflateBytes(b []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	poolAny, _ := deflaterPools.LoadOrStore(level, &sync.Pool{})
	pool := poolAny.(*sync.Pool)
	var fw *flate.Writer
	if v := pool.Get(); v != nil {
		fw = v.(*flate.Writer)
		fw.Reset(&buf)
	} else {
		var err error
		fw, err = flate.NewWriter(&buf, level)
		if err != nil {
			return nil, err
		}
	}
	if _, err := fw.Write(b); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	pool.Put(fw)
	return buf.Bytes(), nil
}
