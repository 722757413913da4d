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

// benchClip renders a two-frame w×h×3 clip of the synthetic corpus: a
// textured background with moving sprites, the content the engine's
// batches carry.
func benchClip(b *testing.B, w, h int) *frame.Clip {
	clip, err := dataset.GenerateClip(dataset.VideoSpec{W: w, H: h, C: 3, Frames: 2, FPS: 30, GOP: 30, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return clip
}

// tvcPayload returns frame i's raw deflate payload in a level-6 TVC
// encoding of clip: the index entry's offset, then a u32 length and the
// stream.
func tvcPayload(b *testing.B, clip *frame.Clip, i int) []byte {
	v, err := codec.Encode(clip, codec.EncodeParams{GOP: 30, FPS: 30, Level: flate.DefaultCompression})
	if err != nil {
		b.Fatal(err)
	}
	off := binary.LittleEndian.Uint64(v.Data[36+9*i:])
	sz := binary.LittleEndian.Uint32(v.Data[off:])
	return v.Data[off+4 : off+4+uint64(sz)]
}

// BenchmarkInflate times each stream the engine inflates, once with this
// package and once with the compress/* streaming reader it replaced, so
// the ratio stays visible. "frame" is an EncodeFrame'd Sub-filtered frame
// (Huffman-only zlib, every batch payload) and "tvc-iframe" a TVC I-frame
// payload: long blocks, decoded through 12-bit tables and a pair table.
// "tvc-pframe" is a TVC P-frame payload at the corpus's 192×108
// geometry, mostly short overlapping matches (raw deflate): a 758-byte
// short block, decoded through 9-bit tables and no pair table. Each case
// reports its input size as src-B/op, which decides the table width.
func BenchmarkInflate(b *testing.B) {
	clip := benchClip(b, 112, 112)
	f := clip.Frames[0]
	enc, err := frame.EncodeFrame(f)
	if err != nil {
		b.Fatal(err)
	}
	zstream := enc[28:] // after the SFM1 header
	corpus := benchClip(b, 192, 108)

	cases := []struct {
		name   string
		src    []byte
		size   int
		ours   func(dst, src []byte) error
		stdlib func(io.Reader) (io.Reader, error)
	}{
		{"frame", zstream, len(f.Pix), inflate.Zlib, func(r io.Reader) (io.Reader, error) { return zlib.NewReader(r) }},
		{"tvc-iframe", tvcPayload(b, clip, 0), len(f.Pix), inflate.Raw, func(r io.Reader) (io.Reader, error) { return flate.NewReader(r), nil }},
		{"tvc-pframe", tvcPayload(b, corpus, 1), len(corpus.Frames[1].Pix), inflate.Raw, func(r io.Reader) (io.Reader, error) { return flate.NewReader(r), nil }},
	}
	for _, c := range cases {
		dst := make([]byte, c.size)
		b.Run(c.name, func(b *testing.B) {
			b.Run("inflate", func(b *testing.B) {
				b.SetBytes(int64(len(dst)))
				b.ReportMetric(float64(len(c.src)), "src-B/op")
				for i := 0; i < b.N; i++ {
					if err := c.ours(dst, c.src); err != nil {
						b.Fatal(err)
					}
				}
				sink = dst
			})
			b.Run("stdlib", func(b *testing.B) {
				b.SetBytes(int64(len(dst)))
				b.ReportMetric(float64(len(c.src)), "src-B/op")
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
