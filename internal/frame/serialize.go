package frame

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Serialization of frames and clips for the storage tier. The format is a
// small header followed by zlib-compressed, row-predicted pixel data: each
// row is delta-coded against the pixel to its left (Sub filter, as in PNG),
// which makes smooth synthetic video compress well while staying lossless.

const (
	frameMagic   = 0x53464d31 // "SFM1"
	clipMagic    = 0x53434c31 // "SCL1"
	maxDimension = 1 << 16
	// maxDeflateRatio is deflate's largest possible expansion of its
	// compressed input.
	maxDeflateRatio = 1032
)

// zlibWriterPool and zlibReaderPool Reset-reuse the flate state machines
// (and their ~64KB windows) across frames instead of rebuilding them for
// every EncodeFrame/DecodeFrame call on the storage hot path.
var zlibWriterPool = sync.Pool{}

// zlibStoredPool holds NoCompression writers for EncodeFrameFast; the
// level is baked into the flate state, so fast and default writers pool
// separately.
var zlibStoredPool = sync.Pool{}

type pooledZlibReader struct {
	src bytes.Reader
	zr  io.ReadCloser // also a zlib.Resetter
}

var zlibReaderPool = sync.Pool{}

func getZlibWriter(dst io.Writer) *zlib.Writer {
	if v := zlibWriterPool.Get(); v != nil {
		zw := v.(*zlib.Writer)
		zw.Reset(dst)
		return zw
	}
	return zlib.NewWriter(dst)
}

func getZlibStoredWriter(dst io.Writer) *zlib.Writer {
	if v := zlibStoredPool.Get(); v != nil {
		zw := v.(*zlib.Writer)
		zw.Reset(dst)
		return zw
	}
	zw, _ := zlib.NewWriterLevel(dst, zlib.NoCompression) // level is valid: no error
	return zw
}

func getZlibReader(data []byte) (*pooledZlibReader, error) {
	if v := zlibReaderPool.Get(); v != nil {
		r := v.(*pooledZlibReader)
		r.src.Reset(data)
		if err := r.zr.(zlib.Resetter).Reset(&r.src, nil); err != nil {
			return nil, err
		}
		return r, nil
	}
	r := &pooledZlibReader{}
	r.src.Reset(data)
	zr, err := zlib.NewReader(&r.src)
	if err != nil {
		return nil, err
	}
	r.zr = zr
	return r, nil
}

// EncodeFrame serializes f losslessly.
func EncodeFrame(f *Frame) ([]byte, error) {
	return encodeFrame(f, false)
}

// EncodeFrameFast serializes f losslessly in decode-cheap form: the zlib
// stream uses stored (uncompressed) blocks, so DecodeFrame pays a memcpy
// instead of an inflate. Bytes are larger, reads are cheaper — the
// encoding of every frame object in the engine's memory tier (the store
// compresses it only when it spills to disk). The output is a standard
// stream; DecodeFrame handles both encodings untouched.
func EncodeFrameFast(f *Frame) ([]byte, error) {
	return encodeFrame(f, true)
}

func encodeFrame(f *Frame, fast bool) ([]byte, error) {
	var buf bytes.Buffer
	hdr := make([]byte, 28)
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.W))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.H))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.C))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(int32(f.Index)))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(f.PTS))
	buf.Write(hdr)

	var zw *zlib.Writer
	if fast {
		zw = getZlibStoredWriter(&buf)
	} else {
		zw = getZlibWriter(&buf)
	}
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
	if fast {
		zlibStoredPool.Put(zw)
	} else {
		zlibWriterPool.Put(zw)
	}
	return buf.Bytes(), nil
}

// DecodeFrame reverses EncodeFrame.
func DecodeFrame(data []byte) (*Frame, error) {
	if len(data) < 28 {
		return nil, fmt.Errorf("frame: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != frameMagic {
		return nil, fmt.Errorf("frame: bad magic %#x", binary.LittleEndian.Uint32(data[0:]))
	}
	w := int(binary.LittleEndian.Uint32(data[4:]))
	h := int(binary.LittleEndian.Uint32(data[8:]))
	c := int(binary.LittleEndian.Uint32(data[12:]))
	idx := int(int32(binary.LittleEndian.Uint32(data[16:])))
	pts := int64(binary.LittleEndian.Uint64(data[20:]))
	if w <= 0 || h <= 0 || c <= 0 || w > maxDimension || h > maxDimension || c > 16 {
		return nil, fmt.Errorf("frame: implausible geometry %dx%dx%d", w, h, c)
	}
	// The header must not size the allocation by itself: a payload cannot
	// inflate to more than maxDeflateRatio times its length.
	if n := w * h * c; n > maxDeflateRatio*(len(data)-28) {
		return nil, fmt.Errorf("frame: %dx%dx%d samples exceed what a %d-byte payload can hold", w, h, c, len(data)-28)
	}
	r, err := getZlibReader(data[28:])
	if err != nil {
		return nil, fmt.Errorf("frame: decompress: %w", err)
	}
	// NewPooled: io.ReadFull overwrites every sample below.
	f := NewPooled(w, h, c)
	f.Index, f.PTS = idx, pts
	if _, err := io.ReadFull(r.zr, f.Pix); err != nil {
		Recycle(f)
		return nil, fmt.Errorf("frame: decompress payload: %w", err)
	}
	// Read to EOF so zlib verifies the trailing checksum; a truncated or
	// corrupted stream must not round-trip silently.
	var one [1]byte
	if _, err := r.zr.Read(one[:]); err != io.EOF {
		Recycle(f)
		return nil, fmt.Errorf("frame: trailing data or corrupt stream: %v", err)
	}
	zlibReaderPool.Put(r)
	// Undo the Sub filter.
	for ch := 0; ch < c; ch++ {
		plane := f.Plane(ch)
		for y := 0; y < h; y++ {
			row := plane[y*w : (y+1)*w]
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
	hdr := make([]byte, 8)
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

// DecodeClip reverses EncodeClip.
func DecodeClip(data []byte) (*Clip, error) {
	if len(data) < 8 || binary.LittleEndian.Uint32(data[0:]) != clipMagic {
		return nil, fmt.Errorf("frame: bad clip header")
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("frame: implausible clip length %d", n)
	}
	off := 8
	frames := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("frame: clip truncated at frame %d", i)
		}
		sz := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if off+sz > len(data) {
			return nil, fmt.Errorf("frame: clip frame %d payload truncated", i)
		}
		f, err := DecodeFrame(data[off : off+sz])
		if err != nil {
			return nil, fmt.Errorf("frame: clip frame %d: %w", i, err)
		}
		frames = append(frames, f)
		off += sz
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
