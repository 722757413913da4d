// Package inflate decodes a DEFLATE (RFC 1951) or zlib (RFC 1950) stream
// whose decompressed size the caller already knows, in one call, straight
// into the caller's buffer. It is the decoder behind every frame payload
// the engine serves and every TVC frame it decodes: those formats record
// the raw size in their headers, so there is nothing for a streaming
// reader's window, per-symbol byte reads and Read-call plumbing to buy.
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
	// maxTableBits caps the direct lookup table; longer codes take the
	// canonical slow path.
	maxTableBits = 12
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

// huffman is a canonical Huffman code. table holds one entry per
// tableBits-bit prefix of the input: sym<<4 | length for every code of at
// most tableBits bits, and 0 where the prefix begins a longer code or no
// code at all, which slowSym resolves from count and syms.
type huffman struct {
	table     [1 << maxTableBits]uint16
	tableBits uint
	count     [maxCodeLen + 1]uint16
	syms      [numLit]uint16 // symbols ordered by (code length, symbol)
	// pairs, for a literal/length code, maps the same prefixes to the one
	// or two literals they begin with: lit2<<16 | lit1<<8 | count<<4 |
	// total length, and count 0 where the prefix begins no literal.
	pairs [1 << maxTableBits]uint32
}

// init builds h from per-symbol code lengths. It rejects over-subscribed
// codes, and incomplete ones exactly as compress/flate does: an empty code
// and a single one-bit code are accepted (decoding with them fails on the
// first unassigned bit pattern), any other incomplete code is not.
func (h *huffman) init(lengths []uint8) bool {
	h.count = [maxCodeLen + 1]uint16{}
	longest := 0
	for _, l := range lengths {
		h.count[l]++
		longest = max(longest, int(l))
	}
	h.count[0] = 0
	left := 1
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - int(h.count[l])
		if left < 0 {
			return false // over-subscribed
		}
	}
	if left != 0 && longest > 0 && !(longest == 1 && h.count[1] == 1) {
		return false // incomplete
	}
	var offs [maxCodeLen + 2]uint16
	for l := 1; l <= maxCodeLen; l++ {
		offs[l+1] = offs[l] + h.count[l]
	}
	for sym, l := range lengths {
		if l != 0 {
			h.syms[offs[l]] = uint16(sym)
			offs[l]++
		}
	}
	h.tableBits = uint(min(max(longest, 1), maxTableBits))
	size := 1 << h.tableBits
	clear(h.table[:size])
	// Walk the codes in canonical order, placing each short one at every
	// table slot whose low bits are its bit-reversed code.
	code, idx := 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		for i := 0; i < int(h.count[l]); i, idx, code = i+1, idx+1, code+1 {
			if uint(l) > h.tableBits {
				continue
			}
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			e := h.syms[idx]<<4 | uint16(l)
			for j := rev; j < size; j += 1 << l {
				h.table[j] = e
			}
		}
		code <<= 1
	}
	return true
}

// buildPairs fills pairs from table. A second literal joins the first
// when its whole code lies inside the tableBits-n1 bits left of the
// prefix, so every pair entry, like every table entry, is right whenever
// the bits its length covers are in the buffer.
func (h *huffman) buildPairs() {
	size := 1 << h.tableBits
	for i, e1 := range h.table[:size] {
		if e1 == 0 || e1 >= 256<<4 {
			h.pairs[i] = 0
			continue
		}
		n1 := uint(e1 & 15)
		p := uint32(e1>>4)<<8 | 1<<4 | uint32(n1)
		if e2 := h.table[i>>n1]; e2 != 0 && e2 < 256<<4 && uint(e2&15) <= h.tableBits-n1 {
			p = uint32(e2>>4)<<16 | uint32(e1>>4)<<8 | 2<<4 | uint32(n1+uint(e2&15))
		}
		h.pairs[i] = p
	}
}

// slowSym decodes one symbol bit by bit from the low bits of b, returning
// the symbol and its length, or length 0 when no code matches.
func (h *huffman) slowSym(b uint64) (int, uint) {
	code, first, idx := 0, 0, 0
	for l := uint(1); l <= maxCodeLen; l++ {
		code |= int(b & 1)
		b >>= 1
		count := int(h.count[l])
		if code-first < count {
			return int(h.syms[idx+code-first]), l
		}
		idx += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, 0
}

// fixedLit and fixedDist are the fixed codes of RFC 1951 §3.2.6.
var fixedLit, fixedDist huffman

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
	fixedLit.init(l[:])
	fixedLit.buildPairs()
	var d [numDist]uint8
	for i := range d {
		d[i] = 5
	}
	fixedDist.init(d[:])
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
	lens [numLit + numDist]uint8
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// refill tops the bit buffer up to more than 56 bits, byte by byte, and
// past the end of src with zero bytes, which are an error only once one of
// their bits has been consumed. The block loop refills eight bytes at a
// time itself and comes here only near the end of src.
func (d *decoder) refill() error {
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

// sym decodes one symbol of h outside the block loop.
func (d *decoder) sym(h *huffman) (int, error) {
	if d.nb < maxCodeLen {
		if err := d.refill(); err != nil {
			return 0, err
		}
	}
	e := h.table[d.b&(1<<h.tableBits-1)]
	sym, n := int(e>>4), uint(e&15)
	if n == 0 {
		if sym, n = h.slowSym(d.b); n == 0 {
			return 0, fmt.Errorf("%w: invalid code", ErrCorrupt)
		}
	}
	d.b >>= n
	d.nb -= n
	return sym, nil
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
			out, err = d.block(dst, out, &fixedLit, &fixedDist)
		case 2:
			if err = d.readCodes(); err == nil {
				out, err = d.block(dst, out, &d.lit, &d.dist)
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

// readCodes reads a dynamic block's code definitions into d.lit and d.dist.
func (d *decoder) readCodes() error {
	v, err := d.bits(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nlit > 286 || ndist > 30 {
		return fmt.Errorf("%w: %d literal/length or %d distance codes", ErrCorrupt, nlit, ndist)
	}
	var clens [19]uint8
	for _, sym := range codeOrder[:nclen] {
		l, err := d.bits(3)
		if err != nil {
			return err
		}
		clens[sym] = uint8(l)
	}
	if !d.lit.init(clens[:]) {
		return fmt.Errorf("%w: bad code-length code", ErrCorrupt)
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		sym, err := d.sym(&d.lit)
		if err != nil {
			return err
		}
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep uint32
		var fill uint8
		switch sym {
		case 16:
			if i == 0 {
				return fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			fill = lens[i-1]
			rep, err = d.bits(2)
			rep += 3
		case 17:
			rep, err = d.bits(3)
			rep += 3
		default: // 18
			rep, err = d.bits(7)
			rep += 11
		}
		if err != nil {
			return err
		}
		if i+int(rep) > len(lens) {
			return fmt.Errorf("%w: code lengths overrun", ErrCorrupt)
		}
		for end := i + int(rep); i < end; i++ {
			lens[i] = fill
		}
	}
	if !d.lit.init(lens[:nlit]) || !d.dist.init(lens[nlit:]) {
		return fmt.Errorf("%w: bad literal/length or distance code", ErrCorrupt)
	}
	d.lit.buildPairs()
	return nil
}

// block decodes one Huffman-coded block. It is the hot loop: the bit
// reader lives in locals, and one refill covers a whole match or a run of
// literals.
func (d *decoder) block(dst []byte, out int, lit, dist *huffman) (int, error) {
	src, pos, b, nb := d.src, d.pos, d.b, d.nb
	litMask, distMask := uint64(1)<<lit.tableBits-1, uint64(1)<<dist.tableBits-1
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
		// Literals run on, one or two per lookup, without a refill while
		// the buffer still holds their whole codes and dst has room for
		// two; the single-symbol path below takes the rest.
		for p := lit.pairs[b&litMask]; p&(3<<4) != 0 && uint(p&15) <= nb && out+1 < len(dst); p = lit.pairs[b&litMask] {
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
		e := lit.table[b&litMask]
		sym, n := int(e>>4), uint(e&15)
		if n == 0 {
			if sym, n = lit.slowSym(b); n == 0 {
				return 0, fmt.Errorf("%w: invalid literal/length code", ErrCorrupt)
			}
		}
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
		sym, n = int(e>>4), uint(e&15)
		if n == 0 {
			if sym, n = dist.slowSym(b); n == 0 {
				return 0, fmt.Errorf("%w: invalid distance code", ErrCorrupt)
			}
		}
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
