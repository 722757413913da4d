package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sand/internal/inflate"
)

// Serialization of frames and clips. Every header opens with a
// little-endian uint32 magic: three letters naming the format ("SFM"
// frame, "SCL" clip, internal/core's "SBA" batch) above an encoding tag
// byte, '1' for each format's original layout. Readers refuse a tag they
// do not know, so a new encoding adds a tag and old objects stay readable.
//
// A frame is a 28-byte header (magic, geometry, index, PTS) and a payload:
//   - SFM1: a zlib stream of the Sub-filtered rows (each sample minus its
//     left neighbour, as in PNG), Huffman-coded by EncodeFrame's writer in
//     deflate.go, which appends to the caller's buffer. Frame objects
//     stored before the raw form are stored-block streams. One
//     internal/inflate call fills Pix exactly and checks the adler32.
//   - SFMR (raw): a CRC-32C of the pixels, then the pixels.
//     EncodeFrameFast writes it; ViewFrame checks it and returns the
//     pixels where they lie.
//
// A clip is an 8-byte SCL1 header (frame count) and length-prefixed
// frames. ParseFrameHeader and ClipFrames are the framing walk the
// decoders share; they touch no pixels.

const (
	tagZlib        = '1' // encoding tags, the low byte of a magic
	tagRaw         = 'R'
	frameMagic     = 0x53464d00 | tagZlib // "SFM1"
	rawFrameMagic  = 0x53464d00 | tagRaw  // "SFMR"
	clipMagic      = 0x53434c00 | tagZlib // "SCL1"
	maxDimension   = 1 << 16
	frameHeaderLen = 28
	crcLen         = 4 // a raw frame's CRC-32C
	clipHeaderLen  = 8
	// minClipFrameLen is the fewest bytes a frame can take inside a clip:
	// its length prefix and its header.
	minClipFrameLen = 4 + frameHeaderLen
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame serializes f losslessly and compactly: the Sub-filtered
// planes are Huffman-coded without an LZ77 match search, which on
// augmented frames compresses as well as zlib's default level at a
// fraction of the time. It is the encoding of every batch payload. The
// output is an SFM1 header and a standard zlib stream with its adler32
// checksum, and its capacity is its length.
func EncodeFrame(f *Frame) ([]byte, error) {
	if err := checkEncodable(f); err != nil {
		return nil, err
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.staged = e.appendFrame(e.staged[:0], f)
	return append(make([]byte, 0, len(e.staged)), e.staged...), nil
}

// EncodeFrameFast serializes f in raw form (SFMR) with one copy. It is
// the encoding of every frame object in the engine's memory tier, read
// back through ViewFrame without a copy (the store compresses it only
// when it spills to disk). The output's capacity is its length.
func EncodeFrameFast(f *Frame) ([]byte, error) {
	if err := checkEncodable(f); err != nil {
		return nil, err
	}
	dst := appendFrameHeader(make([]byte, 0, frameHeaderLen+crcLen+len(f.Pix)), rawFrameMagic, f)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(f.Pix, castagnoli))
	return append(dst, f.Pix...), nil
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

// validGeometry is the geometry a frame header may declare: both encoders
// refuse, and ParseFrameHeader rejects, any other.
func validGeometry(w, h, c int) bool {
	return w > 0 && h > 0 && c > 0 && w <= maxDimension && h <= maxDimension && c <= 16
}

func appendFrameHeader(dst []byte, magic uint32, f *Frame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.H))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.C))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(f.Index)))
	return binary.LittleEndian.AppendUint64(dst, uint64(f.PTS))
}

// appendFrame appends EncodeFrame's bytes for f, which checkEncodable
// accepts, to dst.
func (e *encoder) appendFrame(dst []byte, f *Frame) []byte {
	return e.appendHuffman(appendFrameHeader(dst, frameMagic, f), e.filter(f))
}

// FrameHeader is what an encoded frame's header declares.
type FrameHeader struct {
	W, H, C int
	Index   int
	PTS     int64
	raw     bool // tag 'R': a CRC-32C and the pixels follow
}

// ParseFrameHeader validates an encoded frame's header without touching
// its pixels: a known magic, a plausible geometry, and a payload that can
// hold that many samples. ViewFrame and DecodeFrame run the same checks,
// so any frame they accept parses here.
func ParseFrameHeader(data []byte) (FrameHeader, error) {
	if len(data) < frameHeaderLen {
		return FrameHeader{}, fmt.Errorf("frame: truncated header (%d bytes)", len(data))
	}
	h := FrameHeader{
		W:     int(binary.LittleEndian.Uint32(data[4:])),
		H:     int(binary.LittleEndian.Uint32(data[8:])),
		C:     int(binary.LittleEndian.Uint32(data[12:])),
		Index: int(int32(binary.LittleEndian.Uint32(data[16:]))),
		PTS:   int64(binary.LittleEndian.Uint64(data[20:])),
	}
	switch m := binary.LittleEndian.Uint32(data[0:]); m {
	case frameMagic:
	case rawFrameMagic:
		h.raw = true
	default:
		return FrameHeader{}, fmt.Errorf("frame: bad magic %#x", m)
	}
	if !validGeometry(h.W, h.H, h.C) {
		return FrameHeader{}, fmt.Errorf("frame: implausible geometry %dx%dx%d", h.W, h.H, h.C)
	}
	// The header must not size an allocation by itself: a raw payload is
	// its CRC and samples exactly, and a zlib payload cannot inflate to
	// more than inflate.MaxRatio times its length.
	n, payload := h.W*h.H*h.C, len(data)-frameHeaderLen
	if h.raw && payload != crcLen+n || !h.raw && n > inflate.MaxRatio*payload {
		return FrameHeader{}, fmt.Errorf("frame: %dx%dx%d samples do not fit a %d-byte payload", h.W, h.H, h.C, payload)
	}
	return h, nil
}

// ViewFrame decodes an encoded frame. A raw frame whose CRC-32C matches
// comes back as a view: Pix aliases data (cap == len) and owned is false,
// so nobody may write Pix. Any other encoding is decoded into a fresh
// buffer, and owned is true.
func ViewFrame(data []byte) (f *Frame, owned bool, err error) {
	h, err := ParseFrameHeader(data)
	if err != nil {
		return nil, false, err
	}
	f = &Frame{W: h.W, H: h.H, C: h.C, Index: h.Index, PTS: h.PTS}
	if h.raw {
		f.Pix = data[frameHeaderLen+crcLen : len(data) : len(data)]
		if crc32.Checksum(f.Pix, castagnoli) != binary.LittleEndian.Uint32(data[frameHeaderLen:]) {
			return nil, false, fmt.Errorf("frame: raw pixels fail their CRC-32C")
		}
		return f, false, nil
	}
	f.Pix = make([]byte, h.W*h.H*h.C)
	if err := inflate.Zlib(f.Pix, data[frameHeaderLen:]); err != nil {
		return nil, false, fmt.Errorf("frame: decompress payload: %w", err)
	}
	UndoSub(f.Pix, h.W)
	return f, true, nil
}

// UndoSub undoes the Sub filter in place: every row of w > 0 samples
// (rows of all planes lie back to back) becomes its running sum. It
// serves SFM1 frames and TVC I-frames, whose encoders both predict each
// sample from its left neighbour.
func UndoSub(pix []byte, w int) {
	for len(pix) >= w {
		row := pix[:w]
		var acc byte
		for x := range row {
			acc += row[x]
			row[x] = acc
		}
		pix = pix[w:]
	}
}

// DecodeFrame is ViewFrame returning a frame the caller owns.
func DecodeFrame(data []byte) (*Frame, error) {
	f, owned, err := ViewFrame(data)
	if err == nil && !owned {
		f.Pix = append(make([]byte, 0, len(f.Pix)), f.Pix...)
	}
	return f, err
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
