package inflate_test

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"io"
	"testing"

	"sand/internal/codec"
	"sand/internal/dataset"
	"sand/internal/frame"
	"sand/internal/inflate"
)

var sink []byte

// benchClip renders a 112×112×3 clip of the synthetic corpus: a textured
// background with moving sprites, the content the engine's batches carry.
func benchClip(b *testing.B) *frame.Clip {
	clip, err := dataset.GenerateClip(dataset.VideoSpec{W: 112, H: 112, C: 3, Frames: 2, FPS: 30, GOP: 30, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return clip
}

// BenchmarkInflate times each stream the engine inflates, once with this
// package and once with the compress/* streaming reader it replaced, so
// the ratio stays visible: "frame" is an EncodeFrame'd Sub-filtered frame
// (Huffman-only zlib, every batch payload), "tvc-iframe" a level-6 TVC
// I-frame payload (raw deflate).
func BenchmarkInflate(b *testing.B) {
	clip := benchClip(b)
	f := clip.Frames[0]
	enc, err := frame.EncodeFrame(f)
	if err != nil {
		b.Fatal(err)
	}
	zstream := enc[28:] // after the SFM1 header
	v, err := codec.Encode(clip, codec.EncodeParams{GOP: 30, FPS: 30, Level: flate.DefaultCompression})
	if err != nil {
		b.Fatal(err)
	}
	// Frame 0's payload: the first index entry's offset, then a u32
	// length and the raw deflate stream.
	off := binary.LittleEndian.Uint64(v.Data[36:])
	sz := binary.LittleEndian.Uint32(v.Data[off:])
	iframe := v.Data[off+4 : off+4+uint64(sz)]

	dst := make([]byte, len(f.Pix))
	cases := []struct {
		name   string
		src    []byte
		ours   func(dst, src []byte) error
		stdlib func(io.Reader) (io.Reader, error)
	}{
		{"frame", zstream, inflate.Zlib, func(r io.Reader) (io.Reader, error) { return zlib.NewReader(r) }},
		{"tvc-iframe", iframe, inflate.Raw, func(r io.Reader) (io.Reader, error) { return flate.NewReader(r), nil }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.Run("inflate", func(b *testing.B) {
				b.SetBytes(int64(len(dst)))
				for i := 0; i < b.N; i++ {
					if err := c.ours(dst, c.src); err != nil {
						b.Fatal(err)
					}
				}
				sink = dst
			})
			b.Run("stdlib", func(b *testing.B) {
				b.SetBytes(int64(len(dst)))
				for i := 0; i < b.N; i++ {
					r, err := c.stdlib(bytes.NewReader(c.src))
					if err == nil {
						_, err = io.ReadFull(r, dst)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				sink = dst
			})
		})
	}
}
