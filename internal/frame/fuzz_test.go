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

// FuzzEncodeFrame holds both encoders to their contracts on fuzzed
// frames of bounded geometry (up to 160×160×4, so up to two blocks):
// compress/zlib and inflate.Zlib both inflate each stream to the
// Sub-filtered samples, the Huffman-only stream stays within 0.1 % + 16
// bytes of compress/zlib's HuffmanOnly stream, the stored stream is
// byte-identical to compress/zlib's at NoCompression, and DecodeFrame
// returns the frame from both.
func FuzzEncodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	for _, geom := range [][3]uint8{{0, 0, 0}, {6, 4, 2}, {111, 111, 2}, {159, 159, 3}} {
		pix := make([]byte, 1+rng.Intn(4096))
		rng.Read(pix)
		f.Add(geom[0], geom[1], geom[2], int32(rng.Intn(1000)), int64(rng.Intn(1e6)), pix)
	}
	f.Add(uint8(40), uint8(30), uint8(0), int32(-1), int64(0), []byte{})
	f.Add(uint8(127), uint8(127), uint8(3), int32(5), int64(7), noisyFrame(rng, 64, 64, 1).Pix)
	f.Fuzz(func(t *testing.T, wRaw, hRaw, cRaw uint8, index int32, pts int64, pix []byte) {
		w, h, c := 1+int(wRaw)%160, 1+int(hRaw)%160, 1+int(cRaw)%4
		fr := New(w, h, c)
		fr.Index, fr.PTS = int(index), pts
		if len(pix) > 0 {
			for i := range fr.Pix {
				fr.Pix[i] = pix[i%len(pix)] + byte(i/len(pix))
			}
		}
		huff, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
		stored, err := EncodeFrameFast(fr)
		if err != nil {
			t.Fatalf("EncodeFrameFast: %v", err)
		}
		checkStreams(t, subFiltered(fr), huff[frameHeaderLen:], stored[frameHeaderLen:])
		for name, enc := range map[string][]byte{"EncodeFrame": huff, "EncodeFrameFast": stored} {
			got, err := DecodeFrame(enc)
			if err != nil {
				t.Fatalf("DecodeFrame of %s: %v", name, err)
			}
			if !got.Equal(fr) || got.Index != fr.Index || got.PTS != fr.PTS {
				t.Fatalf("DecodeFrame of %s returned a different frame", name)
			}
		}
	})
}
