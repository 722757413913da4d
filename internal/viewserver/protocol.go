// Package viewserver is SAND's network dataplane: it exports a running
// engine's view filesystem (internal/vfs, the Table 1/2 surface) over
// TCP or unix sockets, so trainers on other machines — or other
// processes on the same node — read batch views exactly as they would
// through the in-process mount.
//
// The wire protocol is deliberately small: length-prefixed binary
// frames, one request/response pair per operation, sessions scoped to a
// connection. File descriptors are per-session and reclaimed when the
// connection drops, mirroring what a kernel does when a process holding
// open files dies.
//
// Frame layout (all integers big-endian):
//
//	u32 bodyLen | body
//
// Request body:
//
//	u64 reqID | u8 op | op-specific payload
//
// Response body:
//
//	u64 reqID | u8 status | payload (StatusErr: u16 code, str message)
//
// Strings are u16-length-prefixed, byte blobs u32-length-prefixed.
package viewserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sand/internal/vfs"
)

// Op identifies a request type.
type Op uint8

// Wire operations. The set mirrors the vfs.Mount surface plus Ping for
// health checks. A node's counters are not on the wire; they are
// exported through its obs registry.
const (
	OpPing Op = iota + 1
	OpOpen
	OpRead
	OpReadAt
	OpGetxattr
	OpListxattr
	OpSize
	OpReaddir
	OpClose
	opMax
)

var opNames = map[Op]string{
	OpPing:      "ping",
	OpOpen:      "open",
	OpRead:      "read",
	OpReadAt:    "readat",
	OpGetxattr:  "getxattr",
	OpListxattr: "listxattr",
	OpSize:      "size",
	OpReaddir:   "readdir",
	OpClose:     "close",
}

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Response status bytes.
const (
	// StatusOK carries a successful payload.
	StatusOK uint8 = 0
	// StatusErr carries an error code and message.
	StatusErr uint8 = 1
	// StatusEOF carries a (possibly empty) payload plus end-of-view,
	// mirroring vfs reads that return data together with io.EOF.
	StatusEOF uint8 = 2
)

// Protocol-level sentinel errors.
var (
	// ErrProtocol reports a malformed or out-of-sequence frame.
	ErrProtocol = errors.New("viewserver: protocol error")
	// ErrTooLarge reports a frame exceeding the negotiated maximum.
	ErrTooLarge = errors.New("viewserver: frame exceeds max message size")
	// ErrClosed reports use of a shut-down client or server.
	ErrClosed = errors.New("viewserver: closed")
)

// DefaultMaxMessage bounds a single frame. Batch views are chunked on
// the read path, so frames never need to exceed this.
const DefaultMaxMessage = 16 << 20

// frameHeaderLen is the byte length of the frame length prefix.
const frameHeaderLen = 4

// respHeaderLen is reqID + status.
const respHeaderLen = 9

// Error codes carried by StatusErr responses so clients can reconstruct
// the POSIX-shaped sentinel the server saw.
type errCode uint16

const (
	codeGeneric errCode = iota + 1
	codeNotExist
	codeBadFD
	codeIsDir
	codeNoXattr
	codeInvalid
	codeProtocol
	codeTooLarge
)

// codeFor maps a server-side error to its wire code.
func codeFor(err error) errCode {
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return codeNotExist
	case errors.Is(err, vfs.ErrBadFD):
		return codeBadFD
	case errors.Is(err, vfs.ErrIsDir):
		return codeIsDir
	case errors.Is(err, vfs.ErrNoXattr):
		return codeNoXattr
	case errors.Is(err, vfs.ErrInvalidPath):
		return codeInvalid
	case errors.Is(err, ErrTooLarge):
		return codeTooLarge
	case errors.Is(err, ErrProtocol):
		return codeProtocol
	default:
		return codeGeneric
	}
}

// errFor reconstructs a client-side error wrapping the matching sentinel,
// so errors.Is works identically against a local or remote mount.
func errFor(code errCode, msg string) error {
	switch code {
	case codeNotExist:
		return fmt.Errorf("%w (remote: %s)", vfs.ErrNotExist, msg)
	case codeBadFD:
		return fmt.Errorf("%w (remote: %s)", vfs.ErrBadFD, msg)
	case codeIsDir:
		return fmt.Errorf("%w (remote: %s)", vfs.ErrIsDir, msg)
	case codeNoXattr:
		return fmt.Errorf("%w (remote: %s)", vfs.ErrNoXattr, msg)
	case codeInvalid:
		return fmt.Errorf("%w (remote: %s)", vfs.ErrInvalidPath, msg)
	case codeTooLarge:
		return fmt.Errorf("%w (remote: %s)", ErrTooLarge, msg)
	case codeProtocol:
		return fmt.Errorf("%w (remote: %s)", ErrProtocol, msg)
	default:
		return fmt.Errorf("viewserver: remote error: %s", msg)
	}
}

// request is a decoded wire request. Only the fields relevant to op are
// meaningful.
type request struct {
	id   uint64
	op   Op
	path string // OpOpen, OpReaddir
	fd   uint32 // fd-addressed ops
	off  uint64 // OpReadAt
	n    uint32 // OpRead, OpReadAt
	name string // OpGetxattr
}

// appendRequest encodes a request body (without the frame length prefix).
func appendRequest(dst []byte, r request) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.id)
	dst = append(dst, byte(r.op))
	switch r.op {
	case OpOpen, OpReaddir:
		dst = appendString(dst, r.path)
	case OpRead:
		dst = binary.BigEndian.AppendUint32(dst, r.fd)
		dst = binary.BigEndian.AppendUint32(dst, r.n)
	case OpReadAt:
		dst = binary.BigEndian.AppendUint32(dst, r.fd)
		dst = binary.BigEndian.AppendUint64(dst, r.off)
		dst = binary.BigEndian.AppendUint32(dst, r.n)
	case OpGetxattr:
		dst = binary.BigEndian.AppendUint32(dst, r.fd)
		dst = appendString(dst, r.name)
	case OpListxattr, OpSize, OpClose:
		dst = binary.BigEndian.AppendUint32(dst, r.fd)
	case OpPing:
		// no payload
	}
	return dst
}

// decodeRequest parses a request body. It never panics: malformed or
// truncated input returns an error wrapping ErrProtocol.
func decodeRequest(body []byte) (request, error) {
	var req request
	c := cursor{b: body}
	req.id = c.u64()
	req.op = Op(c.u8())
	if c.err != nil {
		return req, fmt.Errorf("%w: short request header", ErrProtocol)
	}
	if req.op == 0 || req.op >= opMax {
		return req, fmt.Errorf("%w: unknown op %d", ErrProtocol, req.op)
	}
	switch req.op {
	case OpOpen, OpReaddir:
		req.path = c.str()
	case OpRead:
		req.fd = c.u32()
		req.n = c.u32()
	case OpReadAt:
		req.fd = c.u32()
		req.off = c.u64()
		req.n = c.u32()
	case OpGetxattr:
		req.fd = c.u32()
		req.name = c.str()
	case OpListxattr, OpSize, OpClose:
		req.fd = c.u32()
	case OpPing:
	}
	if c.err != nil {
		return req, fmt.Errorf("%w: truncated %s request", ErrProtocol, req.op)
	}
	if c.off != len(body) {
		return req, fmt.Errorf("%w: %d trailing bytes after %s request", ErrProtocol, len(body)-c.off, req.op)
	}
	return req, nil
}

// cursor is a bounds-checked big-endian reader over a frame body. After
// any underflow it sticks in the error state and returns zeros.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.err = fmt.Errorf("%w: need %d bytes, have %d", ErrProtocol, n, len(c.b)-c.off)
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) u8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *cursor) i64() int64 { return int64(c.u64()) }

// str reads a u16-length-prefixed string (copies out of the frame).
func (c *cursor) str() string {
	n := c.u16()
	return string(c.take(int(n)))
}

// blob reads a u32-length-prefixed byte slice (aliases the frame body).
func (c *cursor) blob() []byte {
	n := c.u32()
	return c.take(int(n))
}

func appendString(dst []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF] // protocol strings are paths/attr names; never this long
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendBlob(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// readFrame reads one length-prefixed frame body. Frames longer than max
// return ErrTooLarge without consuming the body (the connection is then
// unusable and must be closed).
func readFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// finishFrame stamps the length prefix of a frame built with 4 reserved
// leading bytes.
func finishFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b[:frameHeaderLen], uint32(len(b)-frameHeaderLen))
	return b
}

// readResponse reads one response frame from r, scattering the blob
// payload of an OK/EOF response directly into buf instead of staging
// the whole frame in an intermediate allocation — the receive half of
// the zero-copy dataplane. It tolerates arbitrary segmentation of the
// byte stream (the server's writev sends header and payload as separate
// segments). It returns the response status, the count of payload bytes
// written into buf and, for other statuses (StatusErr), the raw
// remainder of the body for decodeError.
//
// A blob longer than buf fills buf, drains the excess off r so the
// connection stays framed, and returns io.ErrShortBuffer: the caller
// sees the truncation instead of silently losing the tail.
func readResponse(r io.Reader, max int, wantID uint64, buf []byte) (status uint8, n int, errPayload []byte, err error) {
	var hdr [frameHeaderLen + respHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	bodyLen := int(binary.BigEndian.Uint32(hdr[:frameHeaderLen]))
	if bodyLen > max {
		return 0, 0, nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, bodyLen, max)
	}
	if bodyLen < respHeaderLen {
		return 0, 0, nil, fmt.Errorf("%w: short response header", ErrProtocol)
	}
	id := binary.BigEndian.Uint64(hdr[frameHeaderLen : frameHeaderLen+8])
	status = hdr[frameHeaderLen+8]
	rem := bodyLen - respHeaderLen
	if id != wantID {
		return 0, 0, nil, fmt.Errorf("%w: response id %d for request %d", ErrProtocol, id, wantID)
	}
	if status != StatusOK && status != StatusEOF {
		body := make([]byte, rem)
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, 0, nil, noEOF(err)
		}
		return status, 0, body, nil
	}
	if rem < 4 {
		return 0, 0, nil, fmt.Errorf("%w: truncated read response", ErrProtocol)
	}
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return 0, 0, nil, noEOF(err)
	}
	rem -= 4
	blobLen := int(binary.BigEndian.Uint32(lenb[:]))
	if blobLen != rem {
		return 0, 0, nil, fmt.Errorf("%w: blob length %d in %d-byte remainder", ErrProtocol, blobLen, rem)
	}
	fill := blobLen
	short := fill > len(buf)
	if short {
		fill = len(buf)
	}
	if _, err := io.ReadFull(r, buf[:fill]); err != nil {
		return 0, 0, nil, noEOF(err)
	}
	if short {
		if _, err := io.CopyN(io.Discard, r, int64(blobLen-fill)); err != nil {
			return 0, 0, nil, noEOF(err)
		}
		return status, fill, nil, io.ErrShortBuffer
	}
	return status, fill, nil, nil
}

// noEOF converts a mid-frame io.EOF into io.ErrUnexpectedEOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
