package inflate

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// maxFuzzOutput bounds the reference decode, so a tiny input that
// inflates to megabytes cannot stall the fuzzer.
const maxFuzzOutput = 1 << 20

// referenceZlib inflates src with compress/zlib and reports whether the
// stream, its checksum included, ends cleanly with every input byte used.
func referenceZlib(src []byte) ([]byte, error) {
	r := bytes.NewReader(src)
	zr, err := zlib.NewReader(r)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(io.LimitReader(zr, maxFuzzOutput+1))
	if err == nil && r.Len() != 0 {
		err = errors.New("trailing bytes")
	}
	return out, err
}

// fuzzSeeds is the FuzzInflate corpus: zlib streams of mixed data and of
// a P-frame-like residual at every writer level the engine uses, each
// whole, truncated and bit-flipped, and the match-copy cases as raw
// streams behind a two-byte zlib header.
func fuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var seeds [][]byte
	for _, c := range matchCases() {
		seeds = append(seeds, append([]byte{0x78, 0x9c}, c.raw...))
	}
	for _, level := range levels {
		seeds = append(seeds, zlibBytes(residual(rng, 4096), level))
	}
	for _, n := range []int{0, 1, 40, 700} {
		data := sample(rng, n)
		for _, level := range levels {
			full := zlibBytes(data, level)
			seeds = append(seeds, full)
			for _, cut := range []int{1, 2, 3, len(full) / 2, len(full) - 4, len(full) - 1} {
				if cut >= 0 && cut < len(full) {
					seeds = append(seeds, full[:cut])
				}
			}
			for i := 0; i < 4; i++ {
				flipped := append([]byte(nil), full...)
				bit := rng.Intn(8 * len(full))
				flipped[bit/8] ^= 1 << (bit % 8)
				seeds = append(seeds, flipped)
			}
		}
	}
	return seeds
}

// FuzzInflate holds Raw and Zlib to compress/flate and compress/zlib:
// a stream either decoder accepts (with nothing after it and, for zlib,
// no preset dictionary) the other accepts too, with identical bytes
// written over a destination that is not zeroed, and
// a destination one byte off either way is rejected. Each input is tried
// as a zlib stream and, without its two header bytes, as a raw one.
func FuzzInflate(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(kind string, decode func(dst, src []byte) error, src []byte, ref []byte, refErr error) {
			if refErr != nil || len(ref) > maxFuzzOutput {
				// The reference refused (or ran past the bound): no
				// destination size may make ours accept.
				n := len(ref)
				for _, size := range []int{0, 1, n - 1, n, n + 1} {
					if size >= 0 && size <= maxFuzzOutput && decode(make([]byte, size), src) == nil {
						t.Fatalf("%s: accepted a %d-byte output the reference rejects (%v)", kind, size, refErr)
					}
				}
				return
			}
			// Prefilled, because the decoder must write every byte.
			dst := bytes.Repeat([]byte{0xa5}, len(ref))
			if err := decode(dst, src); err != nil {
				t.Fatalf("%s: rejected a stream the reference accepts: %v", kind, err)
			}
			if !bytes.Equal(dst, ref) {
				t.Fatalf("%s: output differs from the reference", kind)
			}
			if decode(make([]byte, len(ref)+1), src) == nil {
				t.Fatalf("%s: accepted a destination one byte long", kind)
			}
			if len(ref) > 0 && decode(make([]byte, len(ref)-1), src) == nil {
				t.Fatalf("%s: accepted a destination one byte short", kind)
			}
		}
		if len(data) < 2 || data[1]&0x20 == 0 {
			ref, err := referenceZlib(data)
			check("zlib", Zlib, data, ref, err)
		}
		if len(data) >= 2 {
			raw := data[2:]
			r := bytes.NewReader(raw)
			ref, err := io.ReadAll(io.LimitReader(flate.NewReader(r), maxFuzzOutput+1))
			if err == nil && r.Len() != 0 {
				err = errors.New("trailing bytes")
			}
			check("raw", Raw, raw, ref, err)
		}
	})
}
