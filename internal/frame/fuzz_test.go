package frame

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// hugeGeometryInput is a 43-byte frame whose header claims 65536×65536×16
// samples over a 15-byte payload that opens with a valid zlib header.
// Sized from the header alone it asks for 64 GiB.
func hugeGeometryInput() []byte {
	hdr := make([]byte, 28)
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], maxDimension)
	binary.LittleEndian.PutUint32(hdr[8:], maxDimension)
	binary.LittleEndian.PutUint32(hdr[12:], 16)
	payload := make([]byte, 15)
	payload[0], payload[1] = 0x78, 0x9c
	return append(hdr, payload...)
}

func TestDecodeFrameRejectsOversizedGeometry(t *testing.T) {
	in := hugeGeometryInput()
	if len(in) != 43 {
		t.Fatalf("input is %d bytes, want 43", len(in))
	}
	if _, err := DecodeFrame(in); err == nil {
		t.Fatal("accepted a header claiming more samples than the payload can hold")
	}
}

// decodeSeeds is the FuzzDecodeFrame corpus: both encodings at a few
// geometries, truncated and bit-flipped copies of each, and the
// oversized-geometry input.
func decodeSeeds() [][]byte {
	rng := rand.New(rand.NewSource(11))
	var seeds [][]byte
	for _, geom := range [][3]int{{1, 1, 1}, {7, 5, 3}, {16, 16, 3}} {
		f := randomFrame(rng, geom[0], geom[1], geom[2])
		for _, enc := range []func(*Frame) ([]byte, error){EncodeFrame, EncodeFrameFast} {
			full, err := enc(f)
			if err != nil {
				panic(err)
			}
			seeds = append(seeds, full)
			for _, cut := range []int{27, 28, 30, len(full) - 4, len(full) - 1} {
				seeds = append(seeds, full[:cut])
			}
			for _, bit := range []int{4 * 8, 12 * 8, 29 * 8, (len(full) - 2) * 8} {
				flipped := append([]byte(nil), full...)
				flipped[bit/8] ^= 1 << (bit % 8)
				seeds = append(seeds, flipped)
			}
		}
	}
	return append(seeds, hugeGeometryInput())
}

// FuzzDecodeFrame asserts the frame decoder never panics (or lets a
// header size an allocation the payload cannot fill) on hostile bytes,
// and that every frame it accepts round-trips through EncodeFrameFast.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrame(data)
		if err != nil {
			return
		}
		enc, err := EncodeFrameFast(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded frame: %v", err)
		}
		if !got.Equal(back) || got.Index != back.Index || got.PTS != back.PTS {
			t.Fatalf("round trip through EncodeFrameFast changed the frame: %dx%dx%d idx %d pts %d",
				got.W, got.H, got.C, got.Index, got.PTS)
		}
	})
}
