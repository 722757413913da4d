package frame

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"sand/internal/inflate"
)

// Serialization of frames and clips. An encoded frame is a 28-byte SFM1
// header (geometry, index, PTS) followed by a zlib stream of row-predicted
// pixel data: each row is delta-coded against the pixel to its left (Sub
// filter, as in PNG). Two encoders write that stream and one decoder reads
// both: EncodeFrame entropy-codes the filtered bytes with Huffman-only
// deflate blocks, and EncodeFrameFast stores them. The header fixes the
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

// writerPool Reset-reuses zlib writers (and their ~64KB windows) of one
// level across frames instead of rebuilding them for every encode; the
// level is baked into the flate state, so each level pools separately.
type writerPool struct {
	level int
	pool  sync.Pool
}

var (
	// huffmanWriters back EncodeFrame. On Sub-filtered frames deflate's
	// LZ77 match search finds almost nothing an entropy coder does not, at
	// several times the cost.
	huffmanWriters = &writerPool{level: zlib.HuffmanOnly}
	// storedWriters back EncodeFrameFast.
	storedWriters = &writerPool{level: zlib.NoCompression}
)

func (p *writerPool) get(dst io.Writer) *zlib.Writer {
	if v := p.pool.Get(); v != nil {
		zw := v.(*zlib.Writer)
		zw.Reset(dst)
		return zw
	}
	zw, _ := zlib.NewWriterLevel(dst, p.level) // both levels are valid: no error
	return zw
}

// EncodeFrame serializes f losslessly and compactly: the Sub-filtered
// planes are Huffman-coded without an LZ77 match search, which on
// augmented frames compresses as well as zlib's default level at a
// fraction of the time. It is the encoding of every batch payload. The
// output is a standard zlib stream with its adler32 checksum.
func EncodeFrame(f *Frame) ([]byte, error) {
	return encodeFrame(f, huffmanWriters)
}

// EncodeFrameFast serializes f losslessly in decode-cheap form: the zlib
// stream uses stored (uncompressed) blocks, so DecodeFrame pays a memcpy
// instead of an inflate. Bytes are larger, reads are cheaper — the
// encoding of every frame object in the engine's memory tier (the store
// compresses it only when it spills to disk). The output is a standard
// stream; DecodeFrame handles both encodings untouched.
func EncodeFrameFast(f *Frame) ([]byte, error) {
	return encodeFrame(f, storedWriters)
}

func encodeFrame(f *Frame, writers *writerPool) ([]byte, error) {
	var buf bytes.Buffer
	hdr := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.W))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.H))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.C))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(int32(f.Index)))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(f.PTS))
	buf.Write(hdr)

	zw := writers.get(&buf)
	filtered := make([]byte, f.W)
	for c := 0; c < f.C; c++ {
		plane := f.Plane(c)
		for y := 0; y < f.H; y++ {
			row := plane[y*f.W : (y+1)*f.W]
			prev := byte(0)
			for x, v := range row {
				filtered[x] = v - prev
				prev = v
			}
			if _, err := zw.Write(filtered); err != nil {
				return nil, fmt.Errorf("frame: compress: %w", err)
			}
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("frame: compress close: %w", err)
	}
	writers.pool.Put(zw)
	return buf.Bytes(), nil
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
	if h.W <= 0 || h.H <= 0 || h.C <= 0 || h.W > maxDimension || h.H > maxDimension || h.C > 16 {
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
	// NewPooled: the inflate fills every sample, and the stream must
	// fill Pix exactly, end cleanly and match its adler32 trailer.
	f := NewPooled(h.W, h.H, h.C)
	f.Index, f.PTS = h.Index, h.PTS
	if err := inflate.Zlib(f.Pix, data[frameHeaderLen:]); err != nil {
		Recycle(f)
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
	var buf bytes.Buffer
	hdr := make([]byte, clipHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], clipMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(c.Frames)))
	buf.Write(hdr)
	for i, f := range c.Frames {
		enc, err := EncodeFrame(f)
		if err != nil {
			return nil, fmt.Errorf("frame: clip frame %d: %w", i, err)
		}
		var sz [4]byte
		binary.LittleEndian.PutUint32(sz[:], uint32(len(enc)))
		buf.Write(sz[:])
		buf.Write(enc)
	}
	return buf.Bytes(), nil
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
