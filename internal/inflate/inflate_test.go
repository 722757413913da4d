package inflate

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// levels are the writer levels the engine's encoders use or accept.
var levels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression}

// sample returns n bytes that mix runs, repeats and noise, so every level
// emits literals, short and long matches and (at level 0) stored blocks.
func sample(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		switch rng.Intn(4) {
		case 0:
			out = append(out, bytes.Repeat([]byte{byte(rng.Intn(256))}, 1+rng.Intn(300))...)
		case 1:
			if len(out) > 0 {
				from := rng.Intn(len(out))
				out = append(out, out[from:from+min(len(out)-from, 1+rng.Intn(100))]...)
			}
		default:
			for i := rng.Intn(64); i >= 0; i-- {
				out = append(out, byte(rng.Intn(1+rng.Intn(256))))
			}
		}
	}
	return out[:n]
}

func deflate(data []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		panic(err) // every level in levels is valid
	}
	w.Write(data)
	w.Close()
	return buf.Bytes()
}

func zlibBytes(data []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		panic(err) // every level in levels is valid
	}
	w.Write(data)
	w.Close()
	return buf.Bytes()
}

func TestRoundTripEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 37632, 200000} {
		data := sample(rng, n)
		for _, level := range levels {
			dst := make([]byte, n)
			if err := Raw(dst, deflate(data, level)); err != nil || !bytes.Equal(dst, data) {
				t.Fatalf("Raw n=%d level=%d: err %v, equal %v", n, level, err, bytes.Equal(dst, data))
			}
			clear(dst)
			if err := Zlib(dst, zlibBytes(data, level)); err != nil || !bytes.Equal(dst, data) {
				t.Fatalf("Zlib n=%d level=%d: err %v, equal %v", n, level, err, bytes.Equal(dst, data))
			}
		}
	}
}

// bitWriter assembles hand-made deflate streams, LSB first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) put(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	w.n += n
	for w.n >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
	return w
}

// putCode writes a Huffman code, which deflate sends MSB first.
func (w *bitWriter) putCode(code uint64, n uint) *bitWriter {
	for i := int(n) - 1; i >= 0; i-- {
		w.put(code>>uint(i)&1, 1)
	}
	return w
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// fixedLiteral writes literal v (< 144) in the fixed code.
func (w *bitWriter) fixedLiteral(v byte) *bitWriter { return w.putCode(0x30+uint64(v), 8) }

// dynamicHeader writes the header of a final dynamic block: the
// code-length code's lengths clen (by symbol, complete or broken as the
// case needs), then lens, the nlit+ndist literal/length and distance code
// lengths, each sent as one code-length symbol.
func dynamicHeader(w *bitWriter, clen map[int]uint, lens []int, nlit, ndist int) {
	w.put(1, 1).put(2, 2)
	w.put(uint64(nlit-257), 5).put(uint64(ndist-1), 5).put(19-4, 4)
	order := []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	for _, sym := range order {
		w.put(uint64(clen[sym]), 3)
	}
	// Canonical codes for the code-length code.
	codes := canonical(clen, 19)
	for _, l := range lens {
		c := codes[l]
		w.putCode(uint64(c.code), c.len)
	}
}

type code struct {
	code int
	len  uint
}

func canonical(lengths map[int]uint, n int) []code {
	var count [16]int
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	var next [16]int
	c := 0
	for l := 1; l < 16; l++ {
		c = (c + count[l-1]) << 1
		next[l] = c
	}
	out := make([]code, n)
	for s := 0; s < n; s++ {
		if l := lengths[s]; l > 0 {
			out[s] = code{next[l], l}
			next[l]++
		}
	}
	return out
}

// storedStream is a final stored block holding data.
func storedStream(data []byte) []byte {
	s := []byte{1, 0, 0, 0, 0}
	binary.LittleEndian.PutUint16(s[1:], uint16(len(data)))
	binary.LittleEndian.PutUint16(s[3:], ^uint16(len(data)))
	return append(s, data...)
}

// referenceRaw inflates src with compress/flate and reports whether the
// stream ends cleanly with every input byte used.
func referenceRaw(src []byte) ([]byte, error) {
	r := bytes.NewReader(src)
	out, err := io.ReadAll(flate.NewReader(r))
	if err == nil && r.Len() != 0 {
		err = errors.New("trailing bytes")
	}
	return out, err
}

func TestRejects(t *testing.T) {
	hello := []byte("hello, hello, hello")
	good := zlibBytes(hello, flate.DefaultCompression)

	badAdler := append([]byte(nil), good...)
	badAdler[len(badAdler)-1] ^= 1
	badFCheck := append([]byte(nil), good...)
	badFCheck[1]++
	fdict := append([]byte(nil), good...)
	fdict[1] |= 0x20
	fdict[1] -= byte((uint(fdict[0])<<8 | uint(fdict[1])) % 31) // FCHECK stays valid

	// A fixed block: literal 'a', then a match of length 3 at distance 2
	// with only one byte written.
	farBack := new(bitWriter).put(1, 1).put(1, 2).fixedLiteral('a').
		putCode(1, 7). // length code 257 = 3
		putCode(1, 5). // distance code 1 = 2
		putCode(0, 7). // end of block
		bytes()

	// Code-length code with lengths {1,1,1}: over-subscribed.
	over := new(bitWriter)
	dynamicHeader(over, map[int]uint{0: 1, 1: 1, 2: 1}, nil, 257, 1)
	// Code-length code with one 2-bit code: incomplete (not the single
	// one-bit exception).
	incomplete := new(bitWriter)
	dynamicHeader(incomplete, map[int]uint{1: 2}, nil, 257, 1)
	// A literal/length code whose lengths leave it incomplete: symbols 0
	// and 256 get two bits, nothing else is assigned.
	litLens := make([]int, 258)
	litLens[0], litLens[256], litLens[257] = 2, 2, 1
	incompleteLit := new(bitWriter)
	dynamicHeader(incompleteLit, map[int]uint{0: 1, 1: 2, 2: 2}, litLens, 257, 1)

	badNLEN := storedStream(hello)
	badNLEN[3] ^= 0x10

	cases := []struct {
		name string
		zlib bool
		src  []byte
		n    int
		want error
	}{
		{"bad adler32", true, badAdler, len(hello), ErrChecksum},
		{"bad FCHECK", true, badFCheck, len(hello), ErrHeader},
		{"FDICT set", true, fdict, len(hello), ErrHeader},
		{"one byte short", true, good, len(hello) + 1, ErrSize},
		{"one byte long", true, good, len(hello) - 1, ErrSize},
		{"trailing byte", true, append(append([]byte(nil), good...), 0), len(hello), ErrSize},
		{"truncated trailer", true, good[:len(good)-1], len(hello), ErrTruncated},
		{"truncated body", false, deflate(hello, flate.DefaultCompression)[:4], len(hello), ErrTruncated},
		{"distance before output start", false, farBack, 4, ErrCorrupt},
		{"over-subscribed code", false, over.bytes(), 0, ErrCorrupt},
		{"incomplete code-length code", false, incomplete.bytes(), 0, ErrCorrupt},
		{"incomplete literal/length code", false, incompleteLit.bytes(), 0, ErrCorrupt},
		{"stored LEN and NLEN disagree", false, badNLEN, len(hello), ErrCorrupt},
		{"block type 3", false, []byte{0x07}, 0, ErrCorrupt},
	}
	for _, c := range cases {
		dst := make([]byte, c.n)
		var err error
		if c.zlib {
			err = Zlib(dst, c.src)
		} else {
			err = Raw(dst, c.src)
			// compress/flate must reject every raw case too.
			if _, rerr := referenceRaw(c.src); rerr == nil {
				t.Errorf("%s: compress/flate accepts the stream; the case tests nothing", c.name)
			}
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

func TestLongestMatchAtDistanceOne(t *testing.T) {
	// Fixed block: literal 'z', then length 258 (code 285) at distance 1.
	src := new(bitWriter).put(1, 1).put(1, 2).fixedLiteral('z').
		putCode(0xc5, 8). // 285 = 280 + 5 → 0xc0 + 5
		putCode(0, 5).    // distance code 0 = 1
		putCode(0, 7).
		bytes()
	want := bytes.Repeat([]byte{'z'}, 259)
	ref, err := referenceRaw(src)
	if err != nil || !bytes.Equal(ref, want) {
		t.Fatalf("compress/flate: %v, %d bytes", err, len(ref))
	}
	dst := make([]byte, len(want))
	if err := Raw(dst, src); err != nil || !bytes.Equal(dst, want) {
		t.Fatalf("Raw: %v, equal %v", err, bytes.Equal(dst, want))
	}
}

func TestDegenerateOneBitCode(t *testing.T) {
	// compress/flate accepts one incomplete code: a single one-bit code.
	// Here the literal/length code is 'a' and end-of-block, one bit each,
	// and the distance code is the degenerate single code.
	w := new(bitWriter)
	lens := make([]int, 258)
	lens['a'], lens[256], lens[257] = 1, 1, 1
	dynamicHeader(w, map[int]uint{0: 1, 1: 1}, lens, 257, 1)
	w.putCode(0, 1).putCode(0, 1).putCode(1, 1) // 'a', 'a', end of block
	src := w.bytes()
	ref, err := referenceRaw(src)
	if err != nil || string(ref) != "aa" {
		t.Fatalf("compress/flate: %v %q", err, ref)
	}
	dst := make([]byte, 2)
	if err := Raw(dst, src); err != nil || string(dst) != "aa" {
		t.Fatalf("Raw: %v %q", err, dst)
	}
}

// fixedMatch writes a length/distance pair in the fixed code.
func (w *bitWriter) fixedMatch(length, dist int) *bitWriter {
	ls := 0
	for ls+1 < len(lengthBase) && int(lengthBase[ls+1]) <= length {
		ls++
	}
	if sym := 257 + ls; sym < 280 {
		w.putCode(uint64(sym-256), 7)
	} else {
		w.putCode(uint64(0xc0+sym-280), 8)
	}
	w.put(uint64(length-int(lengthBase[ls])), uint(lengthExtra[ls]))
	ds := 0
	for ds+1 < len(distBase) && int(distBase[ds+1]) <= dist {
		ds++
	}
	w.putCode(uint64(ds), 5)
	return w.put(uint64(dist-int(distBase[ds])), uint(distExtra[ds]))
}

// residual returns n bytes shaped like a TVC P-frame residual: long zero
// runs, runs of one non-zero byte, and short periodic patterns (periods
// 2–7), with a little noise between them.
func residual(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n+400)
	for len(out) < n {
		switch rng.Intn(4) {
		case 0:
			out = append(out, make([]byte, 1+rng.Intn(400))...)
		case 1:
			out = append(out, bytes.Repeat([]byte{byte(1 + rng.Intn(255))}, 1+rng.Intn(60))...)
		case 2:
			period := make([]byte, 2+rng.Intn(6))
			rng.Read(period)
			out = append(out, bytes.Repeat(period, 3+rng.Intn(40))...)
		default:
			for i := rng.Intn(8); i >= 0; i-- {
				out = append(out, byte(rng.Intn(256)))
			}
		}
	}
	return out[:n]
}

// matchCases are raw deflate streams aimed at each match-copy path of the
// block loop: runs at distance 1 of a zero and of a non-zero byte, every
// overlapping period from 2 to 7, a corpus-like P-frame residual, and a
// distance-16 match ending 0 to 8 bytes before the end of the output, so
// the word copy's margin check decides every case.
func matchCases() []struct {
	name string
	raw  []byte
} {
	type matchCase = struct {
		name string
		raw  []byte
	}
	fixed := func() *bitWriter { return new(bitWriter).put(1, 1).put(1, 2) }
	cases := []matchCase{
		{"zero-run", fixed().fixedLiteral(0).fixedMatch(258, 1).fixedMatch(37, 1).fixedLiteral(9).fixedMatch(5, 1).putCode(0, 7).bytes()},
		{"byte-run", fixed().fixedLiteral('q').fixedMatch(258, 1).fixedLiteral(0).fixedLiteral('r').fixedMatch(13, 1).putCode(0, 7).bytes()},
	}
	for p := 2; p <= 7; p++ {
		w := fixed()
		for i := 0; i < p; i++ {
			w.fixedLiteral(byte('a' + i))
		}
		cases = append(cases, matchCase{fmt.Sprintf("period-%d", p), w.fixedMatch(100+p, p).fixedMatch(3, p).putCode(0, 7).bytes()})
	}
	cases = append(cases, matchCase{"pframe-residual", deflate(residual(rand.New(rand.NewSource(3)), 8192), flate.DefaultCompression)})
	for margin := 0; margin <= 8; margin++ {
		w := fixed()
		for i := 0; i < 16; i++ {
			w.fixedLiteral(byte('A' + i))
		}
		w.fixedMatch(20, 16)
		for i := 0; i < margin; i++ {
			w.fixedLiteral(byte('0' + i))
		}
		cases = append(cases, matchCase{fmt.Sprintf("far-match-margin-%d", margin), w.putCode(0, 7).bytes()})
	}
	return cases
}

// TestMatchCopies holds every match-copy path to compress/flate, decoding
// into a destination prefilled with a marker byte: the decoder reuses
// frames, so it must write every output byte itself.
func TestMatchCopies(t *testing.T) {
	for _, c := range matchCases() {
		ref, err := referenceRaw(c.raw)
		if err != nil {
			t.Fatalf("%s: compress/flate: %v", c.name, err)
		}
		dst := bytes.Repeat([]byte{0xa5}, len(ref))
		if err := Raw(dst, c.raw); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(dst, ref) {
			t.Fatalf("%s: output differs from compress/flate", c.name)
		}
	}
}
