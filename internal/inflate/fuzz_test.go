package inflate

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/adler32"
	"io"
	"math/rand"
	"slices"
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
	for _, c := range tableSeeds() {
		seeds = append(seeds, c.zlib)
	}
	return seeds
}

// tableSeed is a zlib stream whose first block is dynamic, and the width
// of the primary tables that block must get. Every one has 15-bit codes,
// so subtables too.
type tableSeed struct {
	name string
	zlib []byte
	bits uint
}

// tableSeeds reach both table widths, the pair table and subtables under
// each width: a Huffman-only stream of more than shortBlock bytes whose
// literal code reaches 15 bits, a short one with codes longer than
// narrowBits, and two one byte either side of the short/long threshold.
// A raw stream of n bytes has n-1 bytes left after its first block's
// header, and a zlib stream's body runs on through the adler32 trailer.
func tableSeeds() []tableSeed {
	// Fibonacci symbol counts make the most skewed Huffman code, which
	// compress/flate limits to 15 bits.
	var fib []byte
	for i, a, b := 0, 1, 1; i < 20; i, a, b = i+1, b, a+b {
		fib = append(fib, bytes.Repeat([]byte{byte('A' + i)}, a)...)
	}
	rand.New(rand.NewSource(11)).Shuffle(len(fib), func(i, j int) { fib[i], fib[j] = fib[j], fib[i] })
	return []tableSeed{
		{"huffman-only, long, 15-bit codes", zlibBytes(fib, flate.HuffmanOnly), wideBits},
		{"short, codes to 15 bits", zlibWrap(chainBlock(600)), narrowBits},
		{"one byte short of long", zlibWrap(chainBlock(shortBlock - 4)), narrowBits},
		{"just long", zlibWrap(chainBlock(shortBlock - 3)), wideBits},
	}
}

// chainBlock returns a final dynamic block of exactly size bytes, and its
// output, over a literal/length code whose lengths run 1, 2, ..., 15, 15:
// literals 'a' to 'n' take 1 to 14 bits, 'o' and end-of-block 15. Each of
// 'a' to 'o' is sent once, then 'a' until the block fills size bytes.
func chainBlock(size int) (raw, out []byte) {
	lens := make([]int, 258) // 257 literal/length lengths, then an empty distance code
	clen := map[int]uint{}
	for l := 0; l <= maxCodeLen; l++ {
		clen[l] = 4
		if l < maxCodeLen {
			lens['a'+l] = l + 1
		}
	}
	lens[256] = maxCodeLen
	w := new(bitWriter)
	dynamicHeader(w, clen, lens, 257, 1)
	litLens := map[int]uint{}
	for sym, l := range lens[:257] {
		if l != 0 {
			litLens[sym] = uint(l)
		}
	}
	code := canonical(litLens, 257)
	bitsUsed := 8*len(w.out) + int(w.n)
	for sym := 'a'; sym <= 'o'; sym++ {
		out = append(out, byte(sym))
		bitsUsed += int(code[sym].len)
	}
	for (bitsUsed+maxCodeLen+7)/8 < size {
		out = append(out, 'a')
		bitsUsed++
	}
	for _, c := range out {
		w.putCode(uint64(code[c].code), code[c].len)
	}
	w.putCode(uint64(code[256].code), code[256].len)
	return w.bytes(), out
}

// zlibWrap puts a raw deflate stream of out behind a zlib header and
// ahead of out's adler32.
func zlibWrap(raw, out []byte) []byte {
	s := append([]byte{0x78, 0x9c}, raw...)
	return binary.BigEndian.AppendUint32(s, adler32.Checksum(out))
}

// TestTableSeeds checks that each tableSeed reaches the tables it is
// there for: its width, a pair table exactly when wide, and subtables
// for its 15-bit codes. compress/zlib must accept it.
func TestTableSeeds(t *testing.T) {
	for _, c := range tableSeeds() {
		if _, err := referenceZlib(c.zlib); err != nil {
			t.Fatalf("%s: compress/zlib: %v", c.name, err)
		}
		d := new(decoder)
		d.src = c.zlib[2:]
		if hdr, err := d.bits(3); err != nil || hdr>>1 != 2 {
			t.Fatalf("%s: block header %03b, %v: want a dynamic block", c.name, hdr, err)
		}
		pairs, err := d.readCodes()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		links := false
		for _, e := range d.lit.table[:1<<d.lit.bits] {
			links = links || e&15 == 0 && e != 0
		}
		if longest := slices.Max(d.lens[:]); longest != maxCodeLen {
			t.Errorf("%s: longest code %d bits, want %d", c.name, longest, maxCodeLen)
		}
		if d.lit.bits != c.bits || (pairs != nil) != (c.bits == wideBits) || !links {
			t.Errorf("%s: %d-bit table, pairs %v, subtables %v; want %d bits",
				c.name, d.lit.bits, pairs != nil, links, c.bits)
		}
	}
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
