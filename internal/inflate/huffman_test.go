package inflate

import (
	"math/bits"
	"testing"
)

// refCode is the reference the lookup tables are held to: a code as
// RFC 1951 §3.2.2 defines it from its lengths, decoded bit by bit.
type refCode struct {
	count [maxCodeLen + 1]int
	syms  []int // symbols ordered by (code length, symbol)
}

func newRefCode(lengths []uint8) *refCode {
	c := &refCode{}
	for l := 1; l <= maxCodeLen; l++ {
		for sym, sl := range lengths {
			if int(sl) == l {
				c.count[l]++
				c.syms = append(c.syms, sym)
			}
		}
	}
	return c
}

// sym decodes one symbol from the low bits of b, next bit lowest, and
// returns it with its length, or length 0 when no code matches.
func (c *refCode) sym(b uint64) (int, uint) {
	code, first, idx := 0, 0, 0
	for l := uint(1); l <= maxCodeLen; l++ {
		code |= int(b & 1)
		b >>= 1
		count := c.count[l]
		if code-first < count {
			return c.syms[idx+code-first], l
		}
		idx += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, 0
}

// acceptable reports whether init must accept lengths: a complete code
// by the Kraft sum, the empty code, or a single one-bit code.
func acceptable(lengths []uint8) bool {
	sum, ones, longest := 0, 0, uint8(0)
	for _, l := range lengths {
		if l != 0 {
			sum += 1 << (maxCodeLen - l)
			longest = max(longest, l)
		}
		if l == 1 {
			ones++
		}
	}
	return sum == 1<<maxCodeLen || longest == 0 || (longest == 1 && ones == 1)
}

// lookup decodes one symbol from the low bits of b through h's table and
// any subtable, as the block loop does.
func (h *huffman) lookup(b uint64) (int, uint) {
	e := h.table[b&(1<<h.bits-1)]
	if e&15 == 0 && e != 0 {
		e = h.link(e, b)
	}
	return int(e >> 4), uint(e & 15)
}

// used returns how many entries of h.table its primary table and
// subtables span.
func (h *huffman) used() int {
	end := 1 << h.bits
	for _, e := range h.table[:1<<h.bits] {
		if e&15 == 0 && e != 0 {
			end = max(end, 1<<h.bits+int(e>>8)<<1+1<<(e>>4&15))
		}
	}
	return end
}

// enough computes the most table entries a complete code over at most n
// symbols, no code longer than 15 bits, takes with a 2^root-entry primary
// table, under the accounting of zlib's examples/enough.c: each root
// prefix that begins longer codes gets a subtable 2^sb entries long,
// sb the fewest bits past the root at which that prefix's codes fill it.
// enough.c enumerates the codes; this maximizes over the same tree of
// choices (how many codes of each length, in canonical order) with a
// memo keyed by length, free patterns, symbols left and room left in the
// open subtable, which is all the remaining entries depend on.
func enough(n, root int) int {
	memo := map[[4]int]int{}
	// sub returns the most entries codes of length l and longer add, or
	// -1 if none complete the code: left l-bit patterns are free, at most
	// avail symbols remain, and the open subtable has room for rem more
	// l-bit codes.
	var sub func(l, left, avail, rem int) int
	sub = func(l, left, avail, rem int) int {
		avail = min(avail, left<<(maxCodeLen-l)) // more could not all be used
		k := [4]int{l, left, avail, rem}
		if v, ok := memo[k]; ok {
			return v
		}
		best := -1
		for use := 0; use <= left && use <= avail; use++ {
			add, r := 0, rem
			if l > root {
				for u := use; ; {
					if u <= r {
						r -= u
						break
					}
					u -= r
					r = 1 << (l - root)
					add += r
				}
			}
			if use == left {
				best = max(best, add)
				continue
			}
			next := 2 * (left - use)
			if l == maxCodeLen || next > avail-use {
				continue
			}
			if r > 0 {
				add += 1 << (l - root) // the open subtable widens a bit
			}
			if v := sub(l+1, next, avail-use, 2*r); v >= 0 {
				best = max(best, add+v)
			}
		}
		memo[k] = best
		return best
	}
	return 1<<root + sub(1, 2, n, 0)
}

// enoughEntries is enough for each alphabet the decoder builds a table for
// at each width it builds it at: the code-length code (19 symbols) at
// clenBits, the distance code (30) and the literal/length code (288) at
// narrowBits and wideBits. TestEnough recomputes them.
var enoughEntries = map[[2]int]int{
	{19, clenBits}:    388,
	{30, narrowBits}:  592,
	{30, wideBits}:    4120,
	{288, narrowBits}: 854,
	{288, wideBits}:   tableSize,
}

// widthsFor lists the widths the decoder builds an n-symbol code's table at.
func widthsFor(n int) []uint {
	if n == 19 {
		return []uint{clenBits}
	}
	return []uint{narrowBits, wideBits}
}

func TestEnough(t *testing.T) {
	// zlib's inflate_table sizes ENOUGH_LENS and ENOUGH_DISTS from
	// "enough 286 9 15" and "enough 30 6 15".
	for _, c := range [][3]int{{286, 9, 852}, {30, 6, 592}} {
		if got := enough(c[0], c[1]); got != c[2] {
			t.Errorf("enough(%d, %d) = %d, zlib prints %d", c[0], c[1], got, c[2])
		}
	}
	for k, want := range enoughEntries {
		if got := enough(k[0], k[1]); got != want {
			t.Errorf("enough(%d, %d) = %d, enoughEntries holds %d", k[0], k[1], got, want)
		}
		if want > tableSize {
			t.Errorf("enough(%d, %d) = %d overruns tableSize %d", k[0], k[1], want, tableSize)
		}
	}
}

// worstCodes are, for each alphabet and width in enoughEntries, a code
// whose table spans exactly that many entries, given as how many codes
// have each length 0..15.
var worstCodes = []struct {
	n, width int
	count    [maxCodeLen + 1]int
}{
	{19, clenBits, [16]int{0, 1, 1, 1, 1, 1, 0, 1, 5, 1, 1, 1, 1, 1, 1, 2}},
	{30, narrowBits, [16]int{0, 0, 3, 1, 1, 1, 1, 0, 0, 0, 13, 5, 1, 1, 1, 2}},
	{30, wideBits, [16]int{0, 0, 3, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 13, 5, 2}},
	{288, narrowBits, [16]int{0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 231, 49, 1, 1, 1, 2}},
	{288, wideBits, [16]int{0, 0, 3, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 231, 49, 2}},
}

// fromCounts assigns lengths to symbols 0, 1, ... in order, shortest
// first, count[l] of each length l, over an n-symbol alphabet.
func fromCounts(n int, count [maxCodeLen + 1]int) []uint8 {
	lengths := make([]uint8, 0, n)
	for l := 1; l <= maxCodeLen; l++ {
		for i := 0; i < count[l]; i++ {
			lengths = append(lengths, uint8(l))
		}
	}
	return append(lengths, make([]uint8, n-len(lengths))...)
}

// TestWorstCodesReachTheBound shows the bound is tight: init builds the
// worst codes into exactly the table space enough counts for them.
func TestWorstCodesReachTheBound(t *testing.T) {
	h := new(huffman)
	for _, w := range worstCodes {
		if !h.init(fromCounts(w.n, w.count), uint(w.width), nil) {
			t.Fatalf("%d symbols at %d bits: init rejects the worst code", w.n, w.width)
		}
		if got, want := h.used(), enoughEntries[[2]int{w.n, w.width}]; got != want {
			t.Errorf("%d symbols at %d bits: the worst code spans %d entries, enough counts %d", w.n, w.width, got, want)
		}
	}
}

// huffmanSeed encodes lengths over an n-symbol alphabet as a
// FuzzHuffmanTable input, left as they are.
func huffmanSeed(n int, lengths []uint8) []byte {
	sel := map[int]byte{19: 0, 30: 1, 288: 2}[n]
	data := append([]byte{sel}, make([]byte, (n+1)/2)...)
	for i, l := range lengths {
		data[1+i/2] |= l << (4 * (i % 2))
	}
	return data
}

// fuzzLengths turns a FuzzHuffmanTable input into a length vector: the
// first byte's low two bits pick 19, 30 or 288 symbols, and the nibbles
// after it, low first, are their lengths. With the first byte's top bit
// set, zero-length symbols then take the longest lengths that still fit,
// in order, until the Kraft sum is 1 or none are left, so half the inputs
// are complete codes.
func fuzzLengths(data []byte) []uint8 {
	if len(data) == 0 {
		return nil
	}
	n := [4]int{19, 30, 288, 288}[data[0]&3]
	lengths := make([]uint8, n)
	for i := range lengths {
		if 1+i/2 < len(data) {
			lengths[i] = data[1+i/2] >> (4 * (i % 2)) & 15
		}
	}
	if data[0]&0x80 != 0 {
		room := 1 << maxCodeLen
		for _, l := range lengths {
			if l != 0 {
				room -= 1 << (maxCodeLen - l)
			}
		}
		for i := range lengths {
			if room <= 0 {
				break
			}
			if lengths[i] == 0 {
				// 2^(15-l) is room's top bit, or all of it at l = 1.
				l := max(1, maxCodeLen+1-bits.Len(uint(room)))
				lengths[i] = uint8(l)
				room -= 1 << (maxCodeLen - l)
			}
		}
	}
	return lengths
}

// FuzzHuffmanTable holds init to the canonical code at every width the
// decoder builds each alphabet's table at: it accepts exactly the codes
// the Kraft sum accepts, plus the empty code and the single one-bit
// code; every input bit pattern decodes, through the primary table and
// any subtable, to the symbol and length the bit-by-bit walk finds (none
// where the walk finds none); the subtables stay within enoughEntries;
// and a wideBits literal/length table's pair entries hold the literals
// the walk finds. The table is filled with junk first, since init clears
// nothing.
func FuzzHuffmanTable(f *testing.F) {
	chain := make([]uint8, 16) // lengths 1, 2, ..., 15, 15
	for i := range chain {
		chain[i] = uint8(min(i+1, maxCodeLen))
	}
	for _, n := range []int{19, 30, 288} {
		f.Add(huffmanSeed(n, chain))
	}
	for _, w := range worstCodes {
		f.Add(huffmanSeed(w.n, fromCounts(w.n, w.count)))
	}
	fixed := make([]uint8, 288)
	for i := range fixed {
		switch {
		case i < 144:
			fixed[i] = 8
		case i < 256:
			fixed[i] = 9
		case i < 280:
			fixed[i] = 7
		default:
			fixed[i] = 8
		}
	}
	f.Add(huffmanSeed(288, fixed))
	fixedDist := make([]uint8, 30) // 30 of the fixed code's 32: incomplete
	for i := range fixedDist {
		fixedDist[i] = 5
	}
	f.Add(huffmanSeed(30, fixedDist))
	f.Add(huffmanSeed(19, []uint8{1}))
	short := make([]uint8, 288) // a literal, end-of-block and a length code in 1 to 3 bits
	short[0], short[256], short[257], short[1] = 1, 2, 3, 3
	f.Add(huffmanSeed(288, short))
	f.Add([]byte{0x82}) // 288 symbols, none given, completed

	h := new(huffman)
	var pairs [1 << wideBits]uint32
	f.Fuzz(func(t *testing.T, data []byte) {
		lengths := fuzzLengths(data)
		if lengths == nil {
			return
		}
		ref := newRefCode(lengths)
		for _, width := range widthsFor(len(lengths)) {
			for i := range h.table {
				h.table[i] = 0xa5a5 ^ uint16(i)
			}
			var p []uint32
			if len(lengths) == 288 && width == wideBits {
				p = pairs[:]
				for i := range p {
					p[i] = 0xdeadbeef
				}
			}
			ok := h.init(lengths, width, p)
			if ok != acceptable(lengths) {
				t.Fatalf("width %d: init says %v, the Kraft check %v, for %v", width, ok, !ok, lengths)
			}
			if !ok {
				continue
			}
			// Every 15-bit input: the low bits of one code and any bits
			// after it, or, for the two incomplete codes, no code.
			for x := uint64(0); x < 1<<maxCodeLen; x++ {
				wantSym, wantLen := ref.sym(x)
				sym, n := h.lookup(x)
				if n != wantLen || (n != 0 && sym != wantSym) {
					t.Fatalf("width %d: input %015b decodes to (%d, %d), the canonical walk to (%d, %d), for %v",
						width, x, sym, n, wantSym, wantLen, lengths)
				}
			}
			if bound := enoughEntries[[2]int{len(lengths), int(width)}]; h.used() > bound {
				t.Fatalf("width %d: table spans %d entries, enough bounds it at %d, for %v", width, h.used(), bound, lengths)
			}
			if p != nil {
				checkPairs(t, h, p, ref)
			}
		}
	})
}

// checkPairs holds each entry of h's pair table to the canonical walk:
// the literal its prefix begins with, if any, and the literal after it,
// if that is one whose code also lies in the prefix. The two incomplete
// codes have none.
func checkPairs(t *testing.T, h *huffman, pairs []uint32, ref *refCode) {
	for i, p := range pairs[:1<<h.bits] {
		x := uint64(i)
		want := uint32(0)
		if s1, n1 := ref.sym(x); n1 != 0 && n1 <= h.bits && s1 < 256 && len(ref.syms) > 1 {
			want = uint32(s1)<<8 | 1<<4 | uint32(n1)
			if s2, n2 := ref.sym(x >> n1); n2 != 0 && n1+n2 <= h.bits && s2 < 256 {
				want = uint32(s2)<<16 | uint32(s1)<<8 | 2<<4 | uint32(n1+n2)
			}
		}
		if p != want {
			t.Fatalf("pair entry %0*b is %#x, want %#x", int(h.bits), i, p, want)
		}
	}
}
