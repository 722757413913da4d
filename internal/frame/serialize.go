package frame

import (
	"encoding/binary"
	"fmt"
	"math"

	"sand/internal/inflate"
)

// Serialization of frames and clips. An encoded frame is a 28-byte SFM1
// header (geometry, index, PTS) followed by a zlib stream of row-predicted
// pixel data: each row is delta-coded against the pixel to its left (Sub
// filter, as in PNG). Two encoders write that stream and one decoder reads
// both: EncodeFrame entropy-codes the filtered bytes with Huffman-only
// deflate blocks, and EncodeFrameFast stores them; both are the
// hand-written zlib writer in deflate.go, which appends to the caller's
// buffer, so AppendClip encodes a whole clip into one. The header fixes the
// raw size, so DecodeFrame inflates the stream in one internal/inflate
// call straight into the frame's pixel buffer, with no streaming reader,
// and rejects a stream that does not fill it exactly or fails its adler32
// check. An encoded clip is an 8-byte SCL1 header (frame count) followed
// by length-prefixed frames.
// ParseFrameHeader and ClipFrames are the framing walk the decoders
// share; they read every header without inflating any pixels.

const (
	frameMagic     = 0x53464d31 // "SFM1"
	clipMagic      = 0x53434c31 // "SCL1"
	maxDimension   = 1 << 16
	frameHeaderLen = 28
	clipHeaderLen  = 8
	// minClipFrameLen is the fewest bytes a frame can take inside a clip:
	// its length prefix and its header.
	minClipFrameLen = 4 + frameHeaderLen
)

// EncodeFrame serializes f losslessly and compactly: the Sub-filtered
// planes are Huffman-coded without an LZ77 match search, which on
// augmented frames compresses as well as zlib's default level at a
// fraction of the time. It is the encoding of every batch payload. The
// output is a standard zlib stream with its adler32 checksum, and its
// capacity is its length.
func EncodeFrame(f *Frame) ([]byte, error) {
	if err := checkEncodable(f); err != nil {
		return nil, err
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.staged = e.appendFrame(e.staged[:0], f)
	return append(make([]byte, 0, len(e.staged)), e.staged...), nil
}

// EncodeFrameFast serializes f losslessly in decode-cheap form: the zlib
// stream uses stored (uncompressed) blocks, so DecodeFrame pays a memcpy
// instead of an inflate. Bytes are larger, reads are cheaper — the
// encoding of every frame object in the engine's memory tier (the store
// compresses it only when it spills to disk). The output is a standard
// stream, byte-identical to compress/zlib's at NoCompression, and its
// capacity is its length; DecodeFrame handles both encodings untouched.
func EncodeFrameFast(f *Frame) ([]byte, error) {
	if err := checkEncodable(f); err != nil {
		return nil, err
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	dst := appendFrameHeader(make([]byte, 0, frameHeaderLen+storedLen(len(f.Pix))), f)
	return appendStored(dst, e.filter(f)), nil
}

// checkEncodable refuses a frame whose encoding ParseFrameHeader would
// refuse, or whose pixel buffer does not match its geometry.
func checkEncodable(f *Frame) error {
	if !validGeometry(f.W, f.H, f.C) {
		return fmt.Errorf("frame: cannot encode geometry %dx%dx%d", f.W, f.H, f.C)
	}
	if len(f.Pix) != f.W*f.H*f.C {
		return fmt.Errorf("frame: pixel buffer length %d != %d*%d*%d", len(f.Pix), f.W, f.H, f.C)
	}
	return nil
}

// validGeometry is the geometry an SFM1 header may declare: both encoders
// refuse, and ParseFrameHeader rejects, any other.
func validGeometry(w, h, c int) bool {
	return w > 0 && h > 0 && c > 0 && w <= maxDimension && h <= maxDimension && c <= 16
}

func appendFrameHeader(dst []byte, f *Frame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.H))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.C))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(f.Index)))
	return binary.LittleEndian.AppendUint64(dst, uint64(f.PTS))
}

// appendFrame appends EncodeFrame's bytes for f, which checkEncodable
// accepts, to dst.
func (e *encoder) appendFrame(dst []byte, f *Frame) []byte {
	return e.appendHuffman(appendFrameHeader(dst, f), e.filter(f))
}

// FrameHeader is what an encoded frame's SFM1 header declares.
type FrameHeader struct {
	W, H, C int
	Index   int
	PTS     int64
}

// ParseFrameHeader validates an encoded frame's header without touching
// its pixel stream: the magic, a plausible geometry, and a sample count
// the payload behind the header could inflate to. DecodeFrame runs the
// same checks, so any frame it accepts parses here.
func ParseFrameHeader(data []byte) (FrameHeader, error) {
	if len(data) < frameHeaderLen {
		return FrameHeader{}, fmt.Errorf("frame: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != frameMagic {
		return FrameHeader{}, fmt.Errorf("frame: bad magic %#x", binary.LittleEndian.Uint32(data[0:]))
	}
	h := FrameHeader{
		W:     int(binary.LittleEndian.Uint32(data[4:])),
		H:     int(binary.LittleEndian.Uint32(data[8:])),
		C:     int(binary.LittleEndian.Uint32(data[12:])),
		Index: int(int32(binary.LittleEndian.Uint32(data[16:]))),
		PTS:   int64(binary.LittleEndian.Uint64(data[20:])),
	}
	if !validGeometry(h.W, h.H, h.C) {
		return FrameHeader{}, fmt.Errorf("frame: implausible geometry %dx%dx%d", h.W, h.H, h.C)
	}
	// The header must not size the allocation by itself: a payload cannot
	// inflate to more than inflate.MaxRatio times its length.
	if payload := len(data) - frameHeaderLen; h.W*h.H*h.C > inflate.MaxRatio*payload {
		return FrameHeader{}, fmt.Errorf("frame: %dx%dx%d samples exceed what a %d-byte payload can hold", h.W, h.H, h.C, payload)
	}
	return h, nil
}

// DecodeFrame reverses EncodeFrame and EncodeFrameFast.
func DecodeFrame(data []byte) (*Frame, error) {
	h, err := ParseFrameHeader(data)
	if err != nil {
		return nil, err
	}
	// The stream must fill Pix exactly, end cleanly and match its adler32
	// trailer.
	f := New(h.W, h.H, h.C)
	f.Index, f.PTS = h.Index, h.PTS
	if err := inflate.Zlib(f.Pix, data[frameHeaderLen:]); err != nil {
		return nil, fmt.Errorf("frame: decompress payload: %w", err)
	}
	// Undo the Sub filter.
	for ch := 0; ch < h.C; ch++ {
		plane := f.Plane(ch)
		for y := 0; y < h.H; y++ {
			row := plane[y*h.W : (y+1)*h.W]
			prev := byte(0)
			for x := range row {
				row[x] += prev
				prev = row[x]
			}
		}
	}
	return f, nil
}

// EncodeClip serializes every frame of a clip into one buffer.
func EncodeClip(c *Clip) ([]byte, error) {
	return AppendClip(nil, c)
}

// AppendClip appends EncodeClip's bytes for c to dst. It refuses a clip
// DecodeClip would: no frames, or frames of more than one geometry. On
// error it returns dst unchanged.
func AppendClip(dst []byte, c *Clip) ([]byte, error) {
	if err := checkClip(c.Frames); err != nil {
		return dst, err
	}
	for i, f := range c.Frames {
		if err := checkEncodable(f); err != nil {
			return dst, fmt.Errorf("frame: clip frame %d: %w", i, err)
		}
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	out := binary.LittleEndian.AppendUint32(dst, clipMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(c.Frames)))
	for _, f := range c.Frames {
		at := len(out)
		out = e.appendFrame(append(out, 0, 0, 0, 0), f)
		binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4))
	}
	return out, nil
}

// ClipFrames walks an encoded clip's framing — the header, then a length
// prefix before each frame — and returns each frame's encoded bytes as
// subslices of data, decoding none of them. A clip must hold at least one
// frame, and its header may not claim more frames than the bytes behind
// it can hold, so the returned slice is never sized by the header alone.
func ClipFrames(data []byte) ([][]byte, error) {
	if len(data) < clipHeaderLen || binary.LittleEndian.Uint32(data[0:]) != clipMagic {
		return nil, fmt.Errorf("frame: bad clip header")
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if n == 0 {
		return nil, ErrEmptyClip
	}
	if room := (len(data) - clipHeaderLen) / minClipFrameLen; n < 0 || n > room {
		return nil, fmt.Errorf("frame: clip claims %d frames, its %d bytes hold at most %d", n, len(data), room)
	}
	frames := make([][]byte, n)
	off := clipHeaderLen
	for i := range frames {
		if off+4 > len(data) {
			return nil, fmt.Errorf("frame: clip truncated at frame %d", i)
		}
		sz := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if sz > len(data)-off {
			return nil, fmt.Errorf("frame: clip frame %d payload truncated", i)
		}
		frames[i] = data[off : off+sz]
		off += sz
	}
	return frames, nil
}

// DecodeClip reverses EncodeClip.
func DecodeClip(data []byte) (*Clip, error) {
	encs, err := ClipFrames(data)
	if err != nil {
		return nil, err
	}
	frames := make([]*Frame, len(encs))
	for i, enc := range encs {
		if frames[i], err = DecodeFrame(enc); err != nil {
			return nil, fmt.Errorf("frame: clip frame %d: %w", i, err)
		}
	}
	return NewClip(frames)
}

// PSNR computes peak signal-to-noise ratio between two same-shape frames.
// Identical frames yield +Inf.
func PSNR(a, b *Frame) (float64, error) {
	if !a.SameShape(b) {
		return 0, fmt.Errorf("frame: PSNR shape mismatch %dx%dx%d vs %dx%dx%d", a.W, a.H, a.C, b.W, b.H, b.C)
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += d * d
	}
	if sum == 0 {
		return math.Inf(1), nil
	}
	mse := sum / float64(len(a.Pix))
	return 10 * math.Log10(255*255/mse), nil
}
