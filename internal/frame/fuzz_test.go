package frame

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"encoding/hex"
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

// storedV1 is f in the memory tier's v1 form: an SFM1 header and the
// Sub-filtered samples in stored zlib blocks, which compress/zlib writes
// byte for byte at NoCompression.
func storedV1(f *Frame) []byte {
	return append(appendFrameHeader(nil, frameMagic, f), stdlibZlib(subFiltered(f), zlib.NoCompression)...)
}

// decodeSeeds is the FuzzDecodeFrame corpus: at a few geometries, the
// raw form, the Huffman form and the v1 stored-block form, with
// truncated and bit-flipped copies of each (a flip past the raw header
// breaks the CRC); the checked-in v1 objects; a raw frame whose header
// claims more samples than its payload holds; and the oversized-geometry
// input.
func decodeSeeds() [][]byte {
	rng := rand.New(rand.NewSource(11))
	var seeds [][]byte
	for _, geom := range [][3]int{{1, 1, 1}, {7, 5, 3}, {16, 16, 3}} {
		f := randomFrame(rng, geom[0], geom[1], geom[2])
		huff, err := EncodeFrame(f)
		if err != nil {
			panic(err)
		}
		raw, err := EncodeFrameFast(f)
		if err != nil {
			panic(err)
		}
		for _, full := range [][]byte{raw, huff, storedV1(f)} {
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
		big := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(big[4:], uint32(geom[0]+1))
		seeds = append(seeds, big)
	}
	for _, v1 := range v1Objects {
		b, err := hex.DecodeString(v1)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, b)
	}
	return append(seeds, hugeGeometryInput())
}

// FuzzDecodeFrame asserts the frame decoders never panic (or let a
// header size an allocation the payload cannot fill) on hostile bytes;
// that DecodeFrame and ViewFrame accept the same bytes and return equal
// frames, ViewFrame's unowned Pix being a window of the input with
// cap == len and DecodeFrame's never aliasing it; and that every frame
// they accept round-trips through EncodeFrameFast.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrame(data)
		view, owned, viewErr := ViewFrame(data)
		if (err == nil) != (viewErr == nil) {
			t.Fatalf("DecodeFrame error %v, ViewFrame error %v", err, viewErr)
		}
		if err != nil {
			return
		}
		if !got.Equal(view) || got.Index != view.Index || got.PTS != view.PTS {
			t.Fatal("DecodeFrame and ViewFrame return different frames")
		}
		if !owned && (&view.Pix[len(view.Pix)-1] != &data[len(data)-1] || cap(view.Pix) != len(view.Pix)) {
			t.Fatal("an unowned view is not the tail of its input with cap == len")
		}
		// An owned frame is the caller's: writing it leaves the input as
		// it was.
		flip := func(p []byte) {
			for i := range p {
				p[i] ^= 0xff
			}
		}
		before := append([]byte(nil), data...)
		flip(got.Pix)
		if owned {
			flip(view.Pix)
		}
		if !bytes.Equal(data, before) {
			t.Fatal("an owned decoded frame aliases its input")
		}
		flip(got.Pix)
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
// compress/zlib and inflate.Zlib both inflate EncodeFrame's stream to the
// Sub-filtered samples, within 0.1 % + 16 bytes of compress/zlib's
// HuffmanOnly stream, and DecodeFrame returns the frame from both
// encoders' output.
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
		raw, err := EncodeFrameFast(fr)
		if err != nil {
			t.Fatalf("EncodeFrameFast: %v", err)
		}
		checkStreams(t, subFiltered(fr), huff[frameHeaderLen:])
		for name, enc := range map[string][]byte{"EncodeFrame": huff, "EncodeFrameFast": raw} {
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
