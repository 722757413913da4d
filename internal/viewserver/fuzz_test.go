package viewserver

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzSeeds is the seeded corpus: valid encodings of every op, the
// frame of the retired op 10 (now an unknown op), their truncations at a
// few offsets, and hand-picked malformed frames. It is exercised by the
// normal `go test` run (each seed runs as a unit case) and used as the
// starting corpus for `go test -fuzz=FuzzDecodeRequest`.
func fuzzSeeds() [][]byte {
	var frames, seeds [][]byte
	for _, req := range seedRequests() {
		frames = append(frames, appendRequest(nil, req))
	}
	frames = append(frames, appendRequest(nil, request{id: 10, op: Op(10)}))
	for _, full := range frames {
		seeds = append(seeds, full)
		for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1} {
			if cut >= 0 && cut < len(full) {
				seeds = append(seeds, full[:cut])
			}
		}
	}
	seeds = append(seeds,
		nil,
		bytes.Repeat([]byte{0xFF}, 9),
		append(appendRequest(nil, request{op: OpOpen}), 0xFF, 0xFF),
		[]byte{0, 0, 0, 0, 0, 0, 0, 0, byte(OpReadAt), 1},
	)
	return seeds
}

// FuzzDecodeRequest asserts the wire decoder never panics on malformed
// or truncated frames, and that every successfully decoded request
// re-encodes to a byte-identical frame (a canonical-form invariant).
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		re := appendRequest(nil, req)
		if !bytes.Equal(re, data) {
			t.Fatalf("decoded request %+v re-encodes to % x, input % x", req, re, data)
		}
	})
}

// chunkReader delivers at most chunk bytes per Read call: it simulates
// the segmentation a writev sender plus TCP fragmentation can produce,
// including a response header split across segments.
type chunkReader struct {
	r     io.Reader
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.chunk > 0 && len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

// respFrame builds one response frame: reqID, status, u32-length blob.
func respFrame(id uint64, status uint8, blob []byte) []byte {
	b := make([]byte, frameHeaderLen)
	b = appendU64(b, id)
	b = append(b, status)
	b = appendBlob(b, blob)
	return finishFrame(b)
}

// respSeeds is the streaming-decoder corpus: well-formed responses
// (zero-length, small, and max-length payloads for the fuzz frame
// budget), an error response, and malformed variants (bad blob length,
// truncations).
func respSeeds() [][]byte {
	const fuzzMax = 1 << 16 // max frame body the fuzz target allows
	errBody := appendString(appendU16(nil, uint16(codeNotExist)), "no such view")
	errFrame := make([]byte, frameHeaderLen)
	errFrame = appendU64(errFrame, 1)
	errFrame = append(errFrame, StatusErr)
	errFrame = append(errFrame, errBody...)
	errFrame = finishFrame(errFrame)

	badLen := respFrame(1, StatusOK, []byte("payload"))
	badLen[frameHeaderLen+respHeaderLen] = 0xFF // blob length disagrees with frame

	seeds := [][]byte{
		respFrame(1, StatusOK, nil), // zero-length payload
		respFrame(1, StatusOK, []byte("hello, view")),
		respFrame(1, StatusEOF, nil),
		respFrame(1, StatusEOF, []byte("tail")),
		respFrame(1, StatusOK, bytes.Repeat([]byte{0xAB}, fuzzMax-respHeaderLen-4)), // max-length payload
		respFrame(2, StatusOK, []byte("wrong id")),
		errFrame,
		badLen,
	}
	full := respFrame(1, StatusOK, []byte("truncate me"))
	for _, cut := range []int{0, 3, frameHeaderLen, frameHeaderLen + 5, len(full) - 1} {
		seeds = append(seeds, full[:cut])
	}
	return seeds
}

// FuzzReadResponse asserts the streaming response decoder never panics,
// never overruns the caller's buffer, and — the writev contract — is
// insensitive to how the byte stream is segmented: decoding through
// 1..32-byte chunks must agree exactly with decoding the contiguous
// stream.
func FuzzReadResponse(f *testing.F) {
	for _, s := range respSeeds() {
		f.Add(s, uint8(1), uint16(64))   // byte-at-a-time: header split across segments
		f.Add(s, uint8(13), uint16(11))  // odd segment size, short buffer
		f.Add(s, uint8(32), uint16(512)) // roomy buffer
		f.Add(s, uint8(5), uint16(0))    // zero-length destination
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8, buflen uint16) {
		const max = 1 << 16
		buf := make([]byte, int(buflen)%4096)
		seg := &chunkReader{r: bytes.NewReader(data), chunk: int(chunk%32) + 1}
		status, n, errPayload, err := readResponse(seg, max, 1, buf)
		if n > len(buf) {
			t.Fatalf("decoder overran buffer: n=%d > len=%d", n, len(buf))
		}

		buf2 := make([]byte, len(buf))
		status2, n2, errPayload2, err2 := readResponse(bytes.NewReader(data), max, 1, buf2)
		if status != status2 || n != n2 || !bytes.Equal(errPayload, errPayload2) {
			t.Fatalf("segmented decode (%d,%d) differs from contiguous (%d,%d)", status, n, status2, n2)
		}
		if (err == nil) != (err2 == nil) ||
			errors.Is(err, io.ErrShortBuffer) != errors.Is(err2, io.ErrShortBuffer) {
			t.Fatalf("segmented decode err %v, contiguous %v", err, err2)
		}
		if !bytes.Equal(buf[:n], buf2[:n2]) {
			t.Fatal("segmented decode filled different bytes than contiguous")
		}
	})
}

// FuzzCursor asserts the low-level bounds-checked reader sticks on error
// and never reads past the buffer regardless of call sequence.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3))
	f.Add(appendString(appendBlob(nil, []byte("blob")), "str"), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, sequence uint8) {
		c := cursor{b: data}
		for i := 0; i < 8; i++ {
			switch (sequence >> (i % 8)) % 6 {
			case 0:
				c.u8()
			case 1:
				c.u16()
			case 2:
				c.u32()
			case 3:
				c.u64()
			case 4:
				c.str()
			case 5:
				c.blob()
			}
		}
		if c.off > len(data) {
			t.Fatalf("cursor overran buffer: off %d > len %d", c.off, len(data))
		}
	})
}
