package frame

import (
	"bytes"
	"compress/zlib"
	"container/heap"
	"encoding/binary"
	"hash/adler32"
	"io"
	"math/rand"
	"slices"
	"testing"

	"sand/internal/inflate"
)

// stdlibZlib is the reference the encoder is held to: compress/zlib's
// writer at level over src in one Write.
func stdlibZlib(src []byte, level int) []byte {
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		panic(err)
	}
	zw.Write(src) // a bytes.Buffer write cannot fail
	if err := zw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// checkStreams holds a Huffman-only stream of src to its contract: both
// compress/zlib and inflate.Zlib inflate it back to src, and it is at
// most 0.1 % + 16 bytes longer than compress/zlib's HuffmanOnly stream.
func checkStreams(t testing.TB, src, huff []byte) {
	t.Helper()
	zr, err := zlib.NewReader(bytes.NewReader(huff))
	if err != nil {
		t.Fatalf("compress/zlib: %v", err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("compress/zlib: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("compress/zlib inflates %d bytes that differ from the %d-byte input", len(got), len(src))
	}
	dst := make([]byte, len(src))
	if err := inflate.Zlib(dst, huff); err != nil {
		t.Fatalf("inflate.Zlib: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("inflate.Zlib inflates bytes that differ from the input")
	}
	ref := stdlibZlib(src, zlib.HuffmanOnly)
	if limit := len(ref) + len(ref)/1000 + 16; len(huff) > limit {
		t.Fatalf("Huffman-only stream is %d bytes, want <= %d (compress/zlib's is %d)", len(huff), limit, len(ref))
	}
}

// encodeHuffman runs appendHuffman on src after a prefix that must
// survive, and returns the stream.
func encodeHuffman(src []byte) []byte {
	prefix := []byte("prefix")
	huff := new(encoder).appendHuffman(append([]byte(nil), prefix...), src)
	if !bytes.HasPrefix(huff, prefix) {
		panic("append overwrote its destination")
	}
	return huff[len(prefix):]
}

// histogramBytes is a shuffled input in which byte v occurs hist[v]
// times.
func histogramBytes(hist *[256]int) []byte {
	var out []byte
	for v, k := range hist {
		out = append(out, bytes.Repeat([]byte{byte(v)}, k)...)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fibonacciBytes is a one-block input that uses all 257 literals and
// whose unlimited Huffman code is deeper than 15 bits: the first 20 byte
// values occur 1, 1, 2, 3, 5, ... times, a chain that codes 19 deep, and
// every other value 200 times.
func fibonacciBytes() []byte {
	var hist [256]int
	a, b := 1, 1
	for v := range hist {
		hist[v] = 200
		if v < 20 {
			hist[v] = a
			a, b = b, a+b
		}
	}
	return histogramBytes(&hist)
}

// codegenForcingBytes is an input whose literal code lengths, run-length
// coded, need a code-length code deeper than 7 bits: two thirds of the
// byte values occur 2^k times for a random k below 8, which scatters the
// literal code lengths.
func codegenForcingBytes() []byte {
	rng := rand.New(rand.NewSource(14))
	var hist [256]int
	for v := range hist {
		if rng.Intn(3) > 0 {
			hist[v] = 1 << rng.Intn(rng.Intn(8)+1)
		}
	}
	return histogramBytes(&hist)
}

// noisyBytes are n bytes of a small-alphabet noise, like a Sub-filtered
// augmented frame.
func noisyBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.NormFloat64() * 6)
	}
	return out
}

// unlimitedDepth is the longest code in an unlimited Huffman code for
// freq's nonzero entries.
func unlimitedDepth(freq []int32) int {
	var weights []int32
	for _, f := range freq {
		if f != 0 {
			weights = append(weights, f)
		}
	}
	if len(weights) <= 2 {
		return min(len(weights), 1)
	}
	slices.Sort(weights)
	minimumRedundancy(weights)
	return int(weights[0]) // the deepest leaf
}

func TestEncoderStreams(t *testing.T) {
	random := make([]byte, 50000)
	rand.New(rand.NewSource(2)).Read(random)
	twoSymbols := bytes.Repeat([]byte{3, 3, 200}, 1000)
	cases := []struct {
		name string
		src  []byte
	}{
		{"empty", nil},
		{"one byte", []byte{42}},
		{"one symbol", bytes.Repeat([]byte{7}, 1000)},
		{"two symbols", twoSymbols},
		{"fibonacci 257 symbols", fibonacciBytes()},
		{"scattered code lengths", codegenForcingBytes()},
		{"incompressible", random},
		{"one block", noisyBytes(3, 65535)},
		{"two blocks", noisyBytes(4, 65536)},
		{"three blocks", noisyBytes(5, 196608)},
		{"incompressible then noisy", append(append([]byte(nil), random...), noisyBytes(6, 100000)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkStreams(t, tc.src, encodeHuffman(tc.src))
		})
	}
}

// TestEncoderCoversItsPaths shows the inputs above reach the paths they
// are named for.
func TestEncoderCoversItsPaths(t *testing.T) {
	e := new(encoder)
	e.count(fibonacciBytes())
	e.buildCodes()
	if d := unlimitedDepth(e.litFreq[:]); d <= maxLitBits {
		t.Fatalf("the Fibonacci input's unlimited literal code is %d bits deep, want > %d", d, maxLitBits)
	}
	e.count(codegenForcingBytes())
	e.buildCodes()
	if d := unlimitedDepth(e.cgFreq[:]); d <= maxCodegenBits {
		t.Fatalf("the scattered input's unlimited code-length code is %d bits deep, want > %d", d, maxCodegenBits)
	}
	random := make([]byte, 50000)
	rand.New(rand.NewSource(2)).Read(random)
	huff := encodeHuffman(random)
	// A stored block's header byte is 0: BFINAL 0, BTYPE 00.
	if huff[2] != 0 {
		t.Fatalf("incompressible input starts with block header byte %#x, want a stored block", huff[2])
	}
}

func TestHuffmanLengthsLimitAndComplete(t *testing.T) {
	fib := func(n int) []int32 {
		out := make([]int32, n)
		a, b := int32(1), int32(1)
		for i := range out {
			out[i] = a
			a, b = b, a+b
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	shuffled := fib(30)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cases := []struct {
		name    string
		freq    []int32
		maxBits int
		fixed   bool // the unlimited code overruns maxBits
	}{
		{"fibonacci 19 at 7 bits", fib(19), 7, true},
		{"fibonacci 30 at 15 bits", fib(30), 15, true},
		{"shuffled fibonacci 30 at 15 bits", append(make([]int32, 227), shuffled...), 15, true},
		{"fibonacci 12 at 15 bits", fib(12), 15, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := unlimitedDepth(tc.freq) > tc.maxBits; got != tc.fixed {
				t.Fatalf("unlimited code overruns %d bits: %v, want %v", tc.maxBits, got, tc.fixed)
			}
			lengths := make([]uint8, len(tc.freq))
			new(encoder).huffmanLengths(tc.freq, tc.maxBits, lengths)
			kraft := 0
			for s, l := range lengths {
				if (l == 0) != (tc.freq[s] == 0) || int(l) > tc.maxBits {
					t.Fatalf("symbol %d (freq %d) has length %d", s, tc.freq[s], l)
				}
				if l > 0 {
					kraft += 1 << (tc.maxBits - int(l))
				}
			}
			if kraft != 1<<tc.maxBits {
				t.Fatalf("Kraft sum %d/%d: the code is not complete", kraft, 1<<tc.maxBits)
			}
		})
	}
}

// heapHuffmanCost is a textbook heap-based Huffman's total cost, the sum
// of freq times depth, which is also the sum of every merge's weight.
func heapHuffmanCost(freq []int32) int64 {
	h := &int64Heap{}
	for _, f := range freq {
		if f != 0 {
			heap.Push(h, int64(f))
		}
	}
	var cost int64
	for h.Len() > 1 {
		m := heap.Pop(h).(int64) + heap.Pop(h).(int64)
		cost += m
		heap.Push(h, m)
	}
	return cost
}

type int64Heap []int64

func (h int64Heap) Len() int           { return len(h) }
func (h int64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h int64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *int64Heap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *int64Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestHuffmanLengthsOptimal checks the two-queue code against a heap
// Huffman on random histograms whose code fits the limit: the costs
// must match.
func TestHuffmanLengthsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		freq := make([]int32, 3+rng.Intn(numLiterals-2))
		for s := range freq {
			if rng.Intn(4) > 0 {
				freq[s] = int32(rng.Intn(1 << uint(rng.Intn(12))))
			}
		}
		if unlimitedDepth(freq) > maxLitBits {
			continue
		}
		lengths := make([]uint8, len(freq))
		new(encoder).huffmanLengths(freq, maxLitBits, lengths)
		var cost int64
		used := 0
		for s, l := range lengths {
			cost += int64(freq[s]) * int64(l)
			if freq[s] != 0 {
				used++
			}
		}
		if used <= 2 {
			continue // one bit each, whatever the weights
		}
		if want := heapHuffmanCost(freq); cost != want {
			t.Fatalf("trial %d: code costs %d bits, a heap Huffman %d", trial, cost, want)
		}
	}
}

// TestBlockEnteredWithPendingBits writes a dynamic block whose literal
// codes start with at least 32 bits pending in the bit buffer: empty
// fixed-Huffman blocks (10 bits each) shift where the header ends. The
// block opens with three bytes that occur nowhere else, so with the
// longest codes: an emit loop entered that way without writing the
// pending bytes first overflows its 64-bit buffer.
func TestBlockEnteredWithPendingBits(t *testing.T) {
	src := noisyBytes(9, 40000) // never 128: that is 21 standard deviations out
	src[0], src[1], src[2] = 128, 128, 128
	for empties := 0; empties < 5; empties++ {
		e := new(encoder)
		w := bitWriter{out: binary.BigEndian.AppendUint16(nil, zlibHeader)}
		for i := 0; i < empties; i++ {
			w.writeBits(1<<1, 3) // BFINAL 0, BTYPE 01
			w.writeBits(0, 7)    // end of block: seven zero bits
		}
		e.count(src)
		sent, _, dataBits := e.buildCodes()
		e.writeHeader(&w, sent)
		if w.nbits < 32 {
			continue
		}
		e.emit(&w, src, dataBits)
		w.writeCode(e.litCodes[endBlock])
		w.storedHeader(0, true)
		checkStreams(t, src, binary.BigEndian.AppendUint32(w.out, adler32.Checksum(src)))
		return
	}
	t.Fatal("no prefix left 32 or more bits pending after the header")
}
