// Package inflate decodes a DEFLATE (RFC 1951) or zlib (RFC 1950) stream
// whose decompressed size the caller already knows, in one call, straight
// into the caller's buffer. It is the decoder behind every frame payload
// the engine serves and every TVC frame it decodes: those formats record
// the raw size in their headers, so there is nothing for a streaming
// reader's window, per-symbol byte reads and Read-call plumbing to buy.
//
// Each code decodes through a two-level table, as in zlib and libdeflate:
// a primary table indexed by the next few input bits, and a subtable for
// each prefix that begins a longer code, both built by doubling. What a
// dynamic block gets follows its length, not the alphabet's: a block
// with fewer than 4 KiB of stream left (a TVC P-frame) gets 9-bit
// primary tables and no pair table, cheap to build for a few hundred
// bytes of input; a longer one (a TVC I-frame, a batch frame) gets 12-bit
// tables and a pair table that decodes two literals per lookup.
//
// Every byte of dst is written, so dst need not be zeroed: the decoded-GOP
// cache rolls frames through a reused scratch frame. Match copies move
// eight bytes at a time at distances of eight or more (possibly running a
// few bytes past the match, into output not yet written), fill runs at
// distance one by word, and double shorter periods with copy. Only TVC
// payloads carry matches; the frame encoders emit Huffman-only or stored
// streams.
//
// Raw and Zlib accept exactly the streams compress/flate and compress/zlib
// accept (the differential fuzz target holds them to it), except that they
// are stricter in three ways: the output must fill dst exactly, no bytes
// may follow the stream, and a zlib preset dictionary is refused.
package inflate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"
	"math/bits"
	"sync"
)

var (
	// ErrHeader reports a zlib header that is not CM = 8 with a valid
	// FCHECK and no preset dictionary.
	ErrHeader = errors.New("inflate: invalid zlib header")
	// ErrChecksum reports a zlib stream whose adler32 trailer does not
	// match its output.
	ErrChecksum = errors.New("inflate: adler32 mismatch")
	// ErrCorrupt reports a malformed deflate stream.
	ErrCorrupt = errors.New("inflate: corrupt stream")
	// ErrTruncated reports a stream that ends before its final block (or,
	// for zlib, before its trailer).
	ErrTruncated = errors.New("inflate: truncated stream")
	// ErrSize reports a stream whose output is not exactly len(dst) bytes,
	// or that is followed by trailing bytes.
	ErrSize = errors.New("inflate: size mismatch")
)

// MaxRatio is deflate's largest expansion: no stream of n bytes inflates
// to more than MaxRatio·n bytes. A format whose header declares a raw
// size checks it against this before allocating the destination.
const MaxRatio = 1032

const (
	maxCodeLen = 15
	numLit     = 288 // literal/length alphabet, including the two unused codes
	numDist    = 32  // distance alphabet, including the two unused codes
	// A dynamic block with fewer than shortBlock bytes of stream left
	// (in the bench corpus, every TVC P-frame) is decoded through narrowBits-bit primary
	// tables and no pair table, which cost little to build; a longer one
	// through wideBits-bit tables and a pair table, which pay for
	// themselves over its output. The code-length code's table is
	// clenBits wide, the longest code-length code there is.
	shortBlock = 4096
	narrowBits = 9
	wideBits   = 12
	clenBits   = 7
	// tableSize is the most entries init fills for a complete code that
	// the decoder builds: a wideBits-bit primary table and the subtables
	// of the worst 288-symbol code at that width, as zlib's
	// examples/enough.c counts them ("enough 288 12 15" prints 4382).
	tableSize = 4382
	// matchBits is the most bits one match consumes: a length code, its
	// extra bits, a distance code and its extra bits (15+5+15+13).
	matchBits = 48
)

// Length and distance bases and extra-bit counts (RFC 1951 §3.2.5).
var (
	lengthBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [30]uint32{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeOrder is the order code-length code lengths are sent in.
	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// huffman is a canonical Huffman code as a two-level lookup table.
// table[:1<<bits] is the primary table: one entry per bits-bit prefix of
// the input, sym<<4 | length for a code of at most bits bits. A prefix
// that begins a longer code holds a link instead, length 0 with the
// subtable's offset past the primary table (always even) in the top
// eight bits, halved, and its width sb in bits 4-7; the subtable's 1<<sb
// entries, indexed by the sb input bits after the prefix, are sym<<4 |
// length again. An entry of 0 is no code at all, which only the empty
// code and the single one-bit code leave.
type huffman struct {
	bits  uint
	table [tableSize]uint16
}

// init builds h from per-symbol code lengths (at most numLit of them),
// with a primary table of min(width, longest code) bits. It rejects
// over-subscribed codes, and incomplete ones exactly as compress/flate
// does: an empty code and a single one-bit code are accepted (decoding
// with them fails on the first unassigned bit pattern), any other
// incomplete code is not.
//
// Given pairs, for a literal/length code, init also fills pairs[:1<<bits]
// with the one or two literals each primary-table prefix begins with:
// lit2<<16 | lit1<<8 | count<<4 | total length, count 0 where the prefix
// begins no literal (and throughout for the two incomplete codes). A
// second literal joins the first when its whole code lies in the
// prefix, so every pair entry, like every table entry, is right whenever
// the bits its length covers are in the buffer.
//
// Both tables are built by doubling, as zlib's and libdeflate's are: with
// a table 2^l entries long, each code of length l fills the one entry its
// bit-reversed codeword indexes, and copying the filled table onto the
// next 2^l entries extends every entry placed so far to l+1 bits.
// Nothing is cleared first: every entry a complete code leaves is
// written.
func (h *huffman) init(lengths []uint8, width uint, pairs []uint32) bool {
	var count [maxCodeLen + 1]uint16
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	left, longest := 1, uint(0)
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - int(count[l])
		if left < 0 {
			return false // over-subscribed
		}
		if count[l] != 0 {
			longest = uint(l)
		}
	}
	if left != 0 {
		if longest > 1 {
			return false // incomplete
		}
		// The empty code or a single one-bit code: a one-bit table whose
		// entry for a 1 bit, at least, is no code.
		h.bits, h.table[0], h.table[1] = 1, 0, 0
		for sym, l := range lengths {
			if l != 0 {
				h.table[0] = uint16(sym)<<4 | 1
			}
		}
		if pairs != nil {
			pairs[0], pairs[1] = 0, 0
		}
		return true
	}
	var first [maxCodeLen + 2]int // index in syms of each length's first code
	for l := 1; l <= maxCodeLen; l++ {
		first[l+1] = first[l] + int(count[l])
	}
	var syms, revs [numLit]uint16 // symbols ordered by (code length, symbol), and their reversed codewords
	offs := first
	for sym, l := range lengths {
		if l != 0 {
			syms[offs[l]] = uint16(sym)
			offs[l]++
		}
	}
	h.bits = min(longest, width)
	// code is the next codeword as RFC 1951 assigns them, first bit
	// highest; the input sends it first bit first, so its entries sit at
	// its bit-reversed value.
	t := h.table[:]
	code, size := 0, 1
	for l := uint(1); l <= h.bits; l++ {
		copy(t[size:], t[:size])
		size <<= 1
		for s := first[l]; s < first[l+1]; s, code = s+1, code+1 {
			rev := bits.Reverse16(uint16(code)) >> (16 - l)
			t[rev] = syms[s]<<4 | uint16(l)
			revs[s] = rev
		}
		code <<= 1
	}
	if pairs != nil {
		fillPairs(pairs, h.bits, &syms, &revs, &first)
	}
	// Codes longer than bits, grouped by their bits-bit prefix, each
	// group in a subtable just wide enough for it: sb starts at the
	// group's shortest length and grows while the codes left cannot fill
	// 2^sb entries.
	end, prefix, start := size, -1, 0
	for l := h.bits + 1; l <= longest; l++ {
		for s := first[l]; s < first[l+1]; s, code = s+1, code+1 {
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			if rev&(size-1) != prefix {
				prefix, start = rev&(size-1), end
				sb := l - h.bits
				for used := first[l+1] - s; used < 1<<sb; used = used<<1 + int(count[h.bits+sb]) {
					sb++
				}
				end = start + 1<<sb
				t[prefix] = uint16(start-size)<<7 | uint16(sb)<<4
				if pairs != nil {
					pairs[prefix] = 0
				}
			}
			e := syms[s]<<4 | uint16(l)
			for i := start + rev>>h.bits; i < end; i += 1 << (l - h.bits) {
				t[i] = e
			}
		}
		code <<= 1
	}
	return true
}

// fillPairs fills pairs[:1<<tableBits] (see init) by doubling, from the
// codes of at most tableBits bits: the l-bit ones are
// syms[first[l]:first[l+1]], their reversed codewords
// revs[first[l]:first[l+1]]. At length l every l-bit code enters alone,
// as one literal or none, and every two literals whose codes are l bits
// long together enter as a pair; the writes at each length are no more
// than its 2^l entries.
func fillPairs(pairs []uint32, tableBits uint, syms, revs *[numLit]uint16, first *[maxCodeLen + 2]int) {
	for l, size := uint(1), 1; l <= tableBits; l++ {
		copy(pairs[size:], pairs[:size])
		size <<= 1
		for s := first[l]; s < first[l+1]; s++ {
			p := uint32(0)
			if syms[s] < 256 {
				p = uint32(syms[s])<<8 | 1<<4 | uint32(l)
			}
			pairs[revs[s]] = p
		}
		// Literals come first among each length's symbols.
		for n1 := uint(1); n1 < l; n1++ {
			for s1 := first[n1]; s1 < first[n1+1] && syms[s1] < 256; s1++ {
				p := uint32(syms[s1])<<8 | 2<<4 | uint32(l)
				for s2 := first[l-n1]; s2 < first[l-n1+1] && syms[s2] < 256; s2++ {
					pairs[int(revs[s1])|int(revs[s2])<<n1] = p | uint32(syms[s2])<<16
				}
			}
		}
	}
}

// link returns the subtable entry that the link e, found in the primary
// table for the input bits b, points at.
func (h *huffman) link(e uint16, b uint64) uint16 {
	return h.table[1<<h.bits+int(e>>8)<<1+int(b>>h.bits)&(1<<(e>>4&15)-1)]
}

// fixedLit and fixedDist are the fixed codes of RFC 1951 §3.2.6, and
// fixedPairs fixedLit's pair table.
var (
	fixedLit, fixedDist huffman
	fixedPairs          [1 << 9]uint32 // fixedLit's longest code is 9 bits
)

func init() {
	var l [numLit]uint8
	for i := range l {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	fixedLit.init(l[:], wideBits, fixedPairs[:])
	var d [numDist]uint8
	for i := range d {
		d[i] = 5
	}
	fixedDist.init(d[:], wideBits, nil)
}

// decoder is one stream's bit reader and its dynamic codes; Raw and Zlib
// take one from the pool per call.
type decoder struct {
	src  []byte
	pos  int    // next byte of src to load into b
	over int    // zero bytes loaded past the end of src
	b    uint64 // bit buffer, next bit lowest
	nb   uint   // valid bits in b
	lit  huffman
	dist huffman
	// pairs is lit's pair table, built for long blocks only.
	pairs [1 << wideBits]uint32
	lens  [numLit + numDist]uint8
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// refill tops the bit buffer up to more than 56 bits: eight bytes at a
// time while src has them, then byte by byte, and past the end of src with
// zero bytes, which are an error only once one of their bits has been
// consumed. The block loop refills eight bytes at a time itself and comes
// here only near the end of src.
func (d *decoder) refill() error {
	if d.pos+8 <= len(d.src) {
		// Bits above nb are already the next input bits, so or-ing the
		// reload over them is harmless.
		d.b |= binary.LittleEndian.Uint64(d.src[d.pos:]) << d.nb
		d.pos += int(63-d.nb) >> 3
		d.nb |= 56
		return nil
	}
	if d.over*8 > int(d.nb) {
		return ErrTruncated
	}
	for d.nb <= 56 {
		if d.pos < len(d.src) {
			d.b |= uint64(d.src[d.pos]) << d.nb
			d.pos++
		} else {
			d.over++
		}
		d.nb += 8
	}
	return nil
}

// bits consumes and returns the next n (≤ 32) bits.
func (d *decoder) bits(n uint) (uint32, error) {
	if d.nb < n {
		if err := d.refill(); err != nil {
			return 0, err
		}
	}
	v := uint32(d.b & (1<<n - 1))
	d.b >>= n
	d.nb -= n
	return v, nil
}

// consumed returns how many bytes of src the stream used up to the
// current bit, rounded up to a byte, or ErrTruncated if that runs past
// the end of src.
func (d *decoder) consumed() (int, error) {
	n := d.pos + d.over - int(d.nb>>3)
	if n > len(d.src) {
		return 0, ErrTruncated
	}
	return n, nil
}

// Raw inflates the raw deflate stream src into dst, which the stream must
// fill exactly, and rejects any bytes after the stream.
func Raw(dst, src []byte) error {
	n, err := inflate(dst, src)
	if err == nil && n != len(src) {
		err = fmt.Errorf("%w: %d trailing bytes", ErrSize, len(src)-n)
	}
	return err
}

// Zlib inflates the zlib stream src into dst, which the stream must fill
// exactly, checking the header and the adler32 trailer and rejecting any
// bytes after it.
func Zlib(dst, src []byte) error {
	if len(src) < 2 {
		return ErrTruncated
	}
	cmf, flg := src[0], src[1]
	if cmf&0x0f != 8 || cmf>>4 > 7 || (uint(cmf)<<8|uint(flg))%31 != 0 || flg&0x20 != 0 {
		return ErrHeader
	}
	body := src[2:]
	n, err := inflate(dst, body)
	if err != nil {
		return err
	}
	switch trailer := body[n:]; {
	case len(trailer) < 4:
		return ErrTruncated
	case len(trailer) > 4:
		return fmt.Errorf("%w: %d trailing bytes", ErrSize, len(trailer)-4)
	case binary.BigEndian.Uint32(trailer) != adler32.Checksum(dst):
		return ErrChecksum
	}
	return nil
}

// inflate decodes the deflate stream at the start of src into dst and
// returns how many bytes of src it took.
func inflate(dst, src []byte) (int, error) {
	d := decoders.Get().(*decoder)
	defer func() {
		d.src = nil
		decoders.Put(d)
	}()
	d.src, d.pos, d.over, d.b, d.nb = src, 0, 0, 0, 0
	out := 0
	for {
		hdr, err := d.bits(3)
		if err != nil {
			return 0, err
		}
		switch hdr >> 1 {
		case 0:
			out, err = d.stored(dst, out)
		case 1:
			out, err = d.block(dst, out, &fixedLit, &fixedDist, fixedPairs[:])
		case 2:
			var pairs []uint32
			if pairs, err = d.readCodes(); err == nil {
				out, err = d.block(dst, out, &d.lit, &d.dist, pairs)
			}
		default:
			err = fmt.Errorf("%w: block type 3", ErrCorrupt)
		}
		if err != nil {
			return 0, err
		}
		if hdr&1 != 0 {
			break
		}
	}
	if out != len(dst) {
		return 0, fmt.Errorf("%w: stream holds %d bytes, want %d", ErrSize, out, len(dst))
	}
	d.b >>= d.nb & 7
	d.nb &^= 7
	return d.consumed()
}

// stored copies a stored block's bytes.
func (d *decoder) stored(dst []byte, out int) (int, error) {
	d.b >>= d.nb & 7
	d.nb &^= 7
	pos, err := d.consumed()
	if err != nil {
		return 0, err
	}
	d.pos, d.over, d.b, d.nb = pos, 0, 0, 0
	if len(d.src)-pos < 4 {
		return 0, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(d.src[pos:]))
	if nn := binary.LittleEndian.Uint16(d.src[pos+2:]); uint16(n) != ^nn {
		return 0, fmt.Errorf("%w: stored block LEN %d and NLEN %d disagree", ErrCorrupt, n, nn)
	}
	pos += 4
	if len(d.src)-pos < n {
		return 0, ErrTruncated
	}
	if len(dst)-out < n {
		return 0, fmt.Errorf("%w: output overruns %d bytes", ErrSize, len(dst))
	}
	copy(dst[out:], d.src[pos:pos+n])
	d.pos = pos + n
	return out + n, nil
}

// readCodes reads a dynamic block's code definitions into d.lit and d.dist
// and returns the pair table the block decodes with: d.pairs for a long
// block, none for a short one.
func (d *decoder) readCodes() ([]uint32, error) {
	width, pairs := uint(narrowBits), []uint32(nil)
	if left := len(d.src) - d.pos - d.over + int(d.nb>>3); left >= shortBlock {
		width, pairs = wideBits, d.pairs[:]
	}
	v, err := d.bits(14)
	if err != nil {
		return nil, err
	}
	nlit, ndist, nclen := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nlit > 286 || ndist > 30 {
		return nil, fmt.Errorf("%w: %d literal/length or %d distance codes", ErrCorrupt, nlit, ndist)
	}
	var clens [19]uint8
	for _, sym := range codeOrder[:nclen] {
		l, err := d.bits(3)
		if err != nil {
			return nil, err
		}
		clens[sym] = uint8(l)
	}
	if !d.lit.init(clens[:], clenBits, nil) {
		return nil, fmt.Errorf("%w: bad code-length code", ErrCorrupt)
	}
	// Code-length codes are at most clenBits bits, so d.lit's table holds
	// every one, and an entry of length 0 is no code.
	clen, mask := &d.lit, uint64(1)<<d.lit.bits-1
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if d.nb < clenBits+7 { // a code and the longest repeat count
			if err := d.refill(); err != nil {
				return nil, err
			}
		}
		e := clen.table[d.b&mask]
		n := uint(e & 15)
		if n == 0 {
			return nil, fmt.Errorf("%w: invalid code-length code", ErrCorrupt)
		}
		d.b >>= n
		d.nb -= n
		sym := e >> 4
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var fill uint8
		x, rep := uint(7), 11 // 18: 11-138 zeros
		switch sym {
		case 16:
			if i == 0 {
				return nil, fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			fill, x, rep = lens[i-1], 2, 3
		case 17:
			x, rep = 3, 3
		}
		rep += int(d.b & (1<<x - 1))
		d.b >>= x
		d.nb -= x
		if i+rep > len(lens) {
			return nil, fmt.Errorf("%w: code lengths overrun", ErrCorrupt)
		}
		for end := i + rep; i < end; i++ {
			lens[i] = fill
		}
	}
	if !d.lit.init(lens[:nlit], width, pairs) || !d.dist.init(lens[nlit:], width, nil) {
		return nil, fmt.Errorf("%w: bad literal/length or distance code", ErrCorrupt)
	}
	return pairs, nil
}

// block decodes one Huffman-coded block. It is the hot loop: the bit
// reader lives in locals, and one refill covers a whole match or a run of
// literals.
func (d *decoder) block(dst []byte, out int, lit, dist *huffman, pairs []uint32) (int, error) {
	src, pos, b, nb := d.src, d.pos, d.b, d.nb
	litMask, distMask := uint64(1)<<lit.bits-1, uint64(1)<<dist.bits-1
	for {
		if nb < matchBits {
			if pos+8 <= len(src) {
				// Bits above nb are already the next input bits, so
				// or-ing the reload over them is harmless.
				b |= binary.LittleEndian.Uint64(src[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				d.pos, d.b, d.nb = pos, b, nb
				if err := d.refill(); err != nil {
					return 0, err
				}
				pos, b, nb = d.pos, d.b, d.nb
			}
		}
		// Given a pair table, literals run on, one or two per lookup,
		// without a refill while the buffer still holds their whole codes
		// and dst has room for two; the single-symbol path below takes the
		// rest.
		if pairs != nil {
			for p := pairs[b&litMask]; p&(3<<4) != 0 && uint(p&15) <= nb && out+1 < len(dst); p = pairs[b&litMask] {
				dst[out] = byte(p >> 8)
				dst[out+1] = byte(p >> 16)
				out += int(p >> 4 & 3)
				n := uint(p & 15)
				b >>= n
				nb -= n
			}
			if nb < matchBits {
				continue
			}
		}
		e := lit.table[b&litMask]
		if e&15 == 0 {
			if e == 0 {
				return 0, fmt.Errorf("%w: invalid literal/length code", ErrCorrupt)
			}
			e = lit.link(e, b)
		}
		sym, n := int(e>>4), uint(e&15)
		b >>= n
		nb -= n
		if sym < 256 {
			if out >= len(dst) {
				return 0, fmt.Errorf("%w: output overruns %d bytes", ErrSize, len(dst))
			}
			dst[out] = byte(sym)
			out++
			continue
		}
		if sym == 256 {
			d.pos, d.b, d.nb = pos, b, nb
			return out, nil
		}
		sym -= 257
		if sym >= len(lengthBase) {
			return 0, fmt.Errorf("%w: length code %d", ErrCorrupt, sym+257)
		}
		x := uint(lengthExtra[sym])
		length := int(lengthBase[sym]) + int(b&(1<<x-1))
		b >>= x
		nb -= x

		e = dist.table[b&distMask]
		if e&15 == 0 {
			if e == 0 {
				return 0, fmt.Errorf("%w: invalid distance code", ErrCorrupt)
			}
			e = dist.link(e, b)
		}
		sym, n = int(e>>4), uint(e&15)
		b >>= n
		nb -= n
		if sym >= len(distBase) {
			return 0, fmt.Errorf("%w: distance code %d", ErrCorrupt, sym)
		}
		x = uint(distExtra[sym])
		back := int(distBase[sym]) + int(b&(1<<x-1))
		b >>= x
		nb -= x

		if back > out {
			return 0, fmt.Errorf("%w: distance %d before the start of the output at %d", ErrCorrupt, back, out)
		}
		if length > len(dst)-out {
			return 0, fmt.Errorf("%w: output overruns %d bytes", ErrSize, len(dst))
		}
		end, from := out+length, out-back
		switch {
		case back >= 8 && end <= len(dst)-8:
			// Every word read lies wholly before the one written, so
			// word copies see finished output. The last word may run up
			// to 7 bytes past end; later output overwrites them.
			for ; out < end; out, from = out+8, from+8 {
				binary.LittleEndian.PutUint64(dst[out:], binary.LittleEndian.Uint64(dst[from:]))
			}
			out = end
		case back == 1:
			// A run of one byte, the common case of a P-frame residual.
			if c := dst[from]; c == 0 {
				clear(dst[out:end])
				out = end
			} else {
				w := uint64(c) * 0x0101010101010101
				for ; out+8 <= end; out += 8 {
					binary.LittleEndian.PutUint64(dst[out:], w)
				}
				for ; out < end; out++ {
					dst[out] = c
				}
			}
		default:
			// An overlapping match repeats a period of back bytes: copying
			// the growing prefix doubles the run each pass.
			for out < end {
				out += copy(dst[out:end], dst[from:out])
			}
		}
	}
}
