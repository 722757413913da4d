package frame

import (
	"encoding/binary"
	"hash/adler32"
	"math/bits"
	"slices"
	"sync"
)

// A hand-written Huffman-only zlib encoder (RFC 1950/1951) for
// EncodeFrame's Sub-filtered samples. Each 65535-byte block (flate's
// HuffmanOnly window) gets a dynamic Huffman code from its byte histogram
// and no LZ77 matches, or is stored when that saves less than 1/16, by
// flate's rules; but the code is built in linear time (a two-queue
// Huffman, then a Kraft fix-up for overlong codes) instead of by
// package-merge, so ties, and the length-limited code, can differ from
// flate's. The stream ends as compress/zlib's Close ends it: an empty
// final stored block and the adler32 trailer. Everything appends to the
// caller's buffer; an encoder's scratch is pooled.

const (
	// maxBlock is the largest stored block and the size of compress/flate's
	// HuffmanOnly window, so it is where the encoder splits blocks.
	maxBlock = 65535
	endBlock = 256 // the end-of-block literal
	// numLiterals is the literal/length alphabet a block uses: every
	// byte and the end-of-block code, no lengths.
	numLiterals    = endBlock + 1
	maxLitBits     = 15
	maxCodegenBits = 7
	numCodegens    = 19
	// zlibHeader is compress/zlib's header at HuffmanOnly: deflate,
	// 32 KiB window, FLEVEL 0, no dictionary.
	zlibHeader = 0x7801
)

// codegenOrder is the order RFC 1951 §3.2.7 sends code-length code
// lengths in.
var codegenOrder = [numCodegens]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// encoder is one encode's scratch, pooled across encodes.
type encoder struct {
	filtered []byte // the Sub-filtered samples
	staged   []byte // EncodeFrame's output before its exact-size copy
	// hist is a block's byte histogram, counted into two interleaved
	// tables so neighbouring samples do not wait on each other's count.
	hist    [2][256]int32
	litFreq [numLiterals]int32
	// lengths holds the literal code lengths and, last, the one distance
	// code's length: the sequence the code-length code describes.
	lengths  [numLiterals + 1]uint8
	litCodes [numLiterals]uint32 // reversed code | length<<16
	// codegen is the run-length coded lengths: a code-length symbol,
	// followed by its extra-bits value for symbols 16, 17 and 18.
	codegen   []uint8
	cgFreq    [numCodegens]int32
	cgLengths [numCodegens]uint8
	cgCodes   [numCodegens]uint32
	keys      []uint64 // freq<<16 | symbol, one per used symbol
	weights   []int32  // minimumRedundancy's in-place array
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// filter Sub-filters f's rows into e.filtered: every sample minus its
// left neighbour, a row's first sample as it is.
func (e *encoder) filter(f *Frame) []byte {
	buf := slices.Grow(e.filtered[:0], len(f.Pix))[:len(f.Pix)]
	e.filtered = buf
	for off := 0; off < len(buf); off += f.W {
		row := f.Pix[off : off+f.W]
		out := buf[off : off+len(row)]
		out[0] = row[0]
		for x := 1; x < len(row); x++ {
			out[x] = row[x] - row[x-1]
		}
	}
	return buf
}

// count sets e.hist to block's byte histogram.
func (e *encoder) count(block []byte) {
	e.hist = [2][256]int32{}
	h0, h1 := &e.hist[0], &e.hist[1]
	i := 0
	for ; i+1 < len(block); i += 2 {
		h0[block[i]]++
		h1[block[i+1]]++
	}
	if i < len(block) {
		h0[block[i]]++
	}
}

// appendHuffman appends a Huffman-only zlib stream of src to dst.
func (e *encoder) appendHuffman(dst, src []byte) []byte {
	w := bitWriter{out: binary.BigEndian.AppendUint16(dst, zlibHeader)}
	for start := 0; start < len(src); start += maxBlock {
		block := src[start:min(start+maxBlock, len(src))]
		e.count(block)
		e.writeBlock(&w, block)
	}
	w.storedHeader(0, true)
	return binary.BigEndian.AppendUint32(w.out, adler32.Checksum(src))
}

// writeBlock writes one non-final block of the bytes e.hist counts: a
// dynamic Huffman block, or a stored one when that is nearly as small
// (compress/flate's writeBlockHuff rule).
func (e *encoder) writeBlock(w *bitWriter, block []byte) {
	sent, headerBits, dataBits := e.buildCodes()
	// The distance code counts one bit, as in flate's size estimate.
	if size := headerBits + dataBits + 1; (len(block)+5)*8 < size+size>>4 {
		w.storedHeader(len(block), false)
		w.out = append(w.out, block...)
		return
	}
	e.writeHeader(w, sent)
	e.emit(w, block, dataBits)
	w.writeCode(e.litCodes[endBlock])
}

// buildCodes builds the literal code for e.hist and the code-length code
// that describes it. It returns how many code-length code lengths the
// header sends, the header's size in bits and the size of the block's
// literal codes, end-of-block included, in bits.
func (e *encoder) buildCodes() (sent, headerBits, dataBits int) {
	for s := range e.hist[0] {
		e.litFreq[s] = e.hist[0][s] + e.hist[1][s]
	}
	e.litFreq[endBlock] = 1
	e.huffmanLengths(e.litFreq[:], maxLitBits, e.lengths[:numLiterals])
	e.lengths[numLiterals] = 1 // one distance code, never used
	canonicalCodes(e.lengths[:numLiterals], e.litCodes[:])
	e.runLengths()
	e.huffmanLengths(e.cgFreq[:], maxCodegenBits, e.cgLengths[:])
	canonicalCodes(e.cgLengths[:], e.cgCodes[:])

	sent = numCodegens
	for sent > 4 && e.cgFreq[codegenOrder[sent-1]] == 0 {
		sent--
	}
	headerBits = 3 + 5 + 5 + 4 + 3*sent +
		int(e.cgFreq[16])*2 + int(e.cgFreq[17])*3 + int(e.cgFreq[18])*7
	for s, f := range e.cgFreq {
		headerBits += int(f) * int(e.cgLengths[s])
	}
	for s, f := range e.litFreq {
		dataBits += int(f) * int(e.lengths[s])
	}
	return sent, headerBits, dataBits
}

// writeHeader writes a dynamic block's header (RFC 1951 §3.2.7): the
// first sent code-length code lengths, then the run-length coded literal
// and distance code lengths.
func (e *encoder) writeHeader(w *bitWriter, sent int) {
	w.writeBits(2<<1, 3) // BFINAL 0, BTYPE 10
	w.writeBits(numLiterals-257, 5)
	w.writeBits(0, 5) // one distance code
	w.writeBits(uint32(sent-4), 4)
	for _, s := range codegenOrder[:sent] {
		w.writeBits(uint32(e.cgLengths[s]), 3)
	}
	for i := 0; i < len(e.codegen); i++ {
		s := e.codegen[i]
		w.writeCode(e.cgCodes[s])
		if s >= 16 {
			i++
			w.writeBits(uint32(e.codegen[i]), [3]uint{2, 3, 7}[s-16])
		}
	}
}

// emit writes block's literal codes, dataBits in all.
func (e *encoder) emit(w *bitWriter, block []byte, dataBits int) {
	// emitTriples needs fewer than 8 bits pending, and the header may
	// leave up to 47: write its whole bytes first.
	w.flushBytes()
	n := len(w.out)
	out := slices.Grow(w.out, dataBits/8+16)
	out = out[:cap(out)]
	n, w.bits, w.nbits = emitTriples(out, n, block, &e.litCodes, w.bits, w.nbits)
	w.out = out[:n]
	for _, b := range block[len(block)/3*3:] {
		w.writeCode(e.litCodes[b])
	}
}

// emitTriples is emit's loop over block's symbols three at a time: the
// bit buffer stays in registers, fewer than 8 bits of it pending at each
// triple, so three codes of at most 15 bits fit; every iteration stores
// the whole buffer at out[n:] and advances n by its whole bytes, with no
// branch. It returns the new n and buffer.
func emitTriples(out []byte, n int, block []byte, codes *[numLiterals]uint32, bitBuf uint64, nbits uint) (int, uint64, uint) {
	for i := 2; i < len(block); i += 3 {
		c0, c1, c2 := codes[block[i-2]], codes[block[i-1]], codes[block[i]]
		// Join the codes first, so only one shift waits on nbits.
		l0, l01 := c0>>16, c0>>16+c1>>16
		v := uint64(c0&0xffff) | uint64(c1&0xffff)<<(l0&63) | uint64(c2&0xffff)<<(l01&63)
		bitBuf |= v << (nbits & 63)
		nbits += uint(l01 + c2>>16)
		binary.LittleEndian.PutUint64(out[n:], bitBuf)
		k := nbits >> 3
		n += int(k)
		bitBuf >>= (k << 3) & 63
		nbits &= 7
	}
	return n, bitBuf, nbits
}

// huffmanLengths sets lengths[s] to symbol s's length in a Huffman code
// for freq whose codes are at most maxBits long; unused symbols get 0.
// One or two used symbols get one bit each, as in compress/flate.
func (e *encoder) huffmanLengths(freq []int32, maxBits int, lengths []uint8) {
	keys := e.keys[:0]
	for s, f := range freq {
		lengths[s] = 0
		if f != 0 {
			keys = append(keys, uint64(f)<<16|uint64(s))
		}
	}
	e.keys = keys
	if len(keys) <= 2 {
		for _, k := range keys {
			lengths[k&0xffff] = 1
		}
		return
	}
	// Ascending frequency, ties by symbol: compress/flate's order.
	slices.Sort(keys)
	depth := slices.Grow(e.weights[:0], len(keys))[:len(keys)]
	e.weights = depth
	for i, k := range keys {
		depth[i] = int32(k >> 16)
	}
	minimumRedundancy(depth)

	var count [maxLitBits + 1]int32
	for _, d := range depth {
		count[min(int(d), maxBits)]++
	}
	if int(depth[0]) > maxBits {
		// depth[0] is the deepest leaf. Folding the overlong codes into
		// maxBits over-subscribes the code; lengthen the deepest shorter
		// codes one at a time until it is complete again (miniz's
		// tdefl_huffman_enforce_max_code_size).
		total := 0
		for l := 1; l <= maxBits; l++ {
			total += int(count[l]) << (maxBits - l)
		}
		for ; total > 1<<maxBits; total-- {
			count[maxBits]--
			for l := maxBits - 1; l > 0; l-- {
				if count[l] != 0 {
					count[l]--
					count[l+1] += 2
					break
				}
			}
		}
	}
	// The most frequent symbols take the shortest codes.
	j := len(keys)
	for l := 1; l <= maxBits; l++ {
		for c := count[l]; c > 0; c-- {
			j--
			lengths[keys[j]&0xffff] = uint8(l)
		}
	}
}

// minimumRedundancy turns a, the weights of len(a) ≥ 2 leaves in
// ascending order, into their code lengths in an optimal (unlimited)
// prefix code, in place and in linear time: Moffat and Katajainen's
// in-place two-queue Huffman. On a tie it takes the internal node.
func minimumRedundancy(a []int32) {
	n := len(a)
	// Build the tree: a[next] becomes internal node next's weight, and a
	// consumed internal node's slot its parent's index.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] <= a[leaf] {
			a[next] = a[root]
			a[root] = int32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] <= a[leaf]) {
			a[next] += a[root]
			a[root] = int32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Parent indices to internal node depths; n-2 is the root.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Internal node depths to leaf depths, shallowest last.
	avail, used, depth := 1, 0, int32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used, depth = 2*used, 0, depth+1
	}
}

// canonicalCodes assigns RFC 1951 §3.2.2's canonical codes to lengths,
// bit-reversed for the LSB-first writer and packed as code | length<<16.
func canonicalCodes(lengths []uint8, codes []uint32) {
	var count, next [maxLitBits + 1]uint16
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l <= maxLitBits; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lengths {
		if l == 0 {
			codes[s] = 0
			continue
		}
		codes[s] = uint32(bits.Reverse16(next[l])>>(16-l)) | uint32(l)<<16
		next[l]++
	}
}

// runLengths run-length codes e.lengths with the code-length alphabet
// into e.codegen and counts each symbol in e.cgFreq, as compress/flate's
// generateCodegen does: repeats of a nonzero length as 16 (3–6 more),
// zero runs as 18 (11–138) or 17 (3–10).
func (e *encoder) runLengths() {
	e.cgFreq = [numCodegens]int32{}
	out := e.codegen[:0]
	lengths := e.lengths[:]
	for i := 0; i < len(lengths); {
		l := lengths[i]
		run := 1
		for i+run < len(lengths) && lengths[i+run] == l {
			run++
		}
		i += run
		if l != 0 {
			out = append(out, l)
			e.cgFreq[l]++
			run--
			for run >= 3 {
				k := min(run, 6)
				out = append(out, 16, uint8(k-3))
				e.cgFreq[16]++
				run -= k
			}
		} else {
			for run >= 11 {
				k := min(run, 138)
				out = append(out, 18, uint8(k-11))
				e.cgFreq[18]++
				run -= k
			}
			if run >= 3 {
				out = append(out, 17, uint8(run-3))
				e.cgFreq[17]++
				run = 0
			}
		}
		for ; run > 0; run-- {
			out = append(out, l)
			e.cgFreq[l]++
		}
	}
	e.codegen = out
}

// bitWriter appends an LSB-first bit stream to out; up to 47 bits wait in
// bits.
type bitWriter struct {
	out   []byte
	bits  uint64
	nbits uint
}

func (w *bitWriter) writeBits(v uint32, n uint) {
	w.bits |= uint64(v) << w.nbits
	w.nbits += n
	if w.nbits >= 48 {
		k := len(w.out)
		w.out = binary.LittleEndian.AppendUint64(w.out, w.bits)[:k+6]
		w.bits >>= 48
		w.nbits -= 48
	}
}

// writeCode writes a code packed as canonicalCodes packs it.
func (w *bitWriter) writeCode(c uint32) {
	w.writeBits(c&0xffff, uint(c>>16))
}

// flushBytes writes every whole pending byte, leaving fewer than 8 bits.
func (w *bitWriter) flushBytes() {
	for ; w.nbits >= 8; w.nbits -= 8 {
		w.out = append(w.out, byte(w.bits))
		w.bits >>= 8
	}
}

// storedHeader starts a stored block of n bytes: its 3 header bits, zero
// padding to a byte boundary, then LEN and NLEN.
func (w *bitWriter) storedHeader(n int, final bool) {
	var bfinal uint32
	if final {
		bfinal = 1
	}
	w.writeBits(bfinal, 3)
	w.flushBytes()
	if w.nbits > 0 {
		w.out = append(w.out, byte(w.bits))
		w.bits, w.nbits = 0, 0
	}
	w.out = binary.LittleEndian.AppendUint16(w.out, uint16(n))
	w.out = binary.LittleEndian.AppendUint16(w.out, ^uint16(n))
}
