package viewserver

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"time"

	"sync"

	"sand/internal/vfs"
)

// backoffDelay computes the attempt-th (1-based) reconnect delay:
// exponential growth from base, spread across [1-jitter, 1+jitter) by u
// (a uniform [0,1) variate) so a fleet of clients that lost the same
// server desynchronizes instead of redialing in lockstep.
func backoffDelay(base time.Duration, attempt int, jitter, u float64) time.Duration {
	d := base << (attempt - 1)
	if jitter <= 0 {
		return d
	}
	scale := 1 - jitter + 2*jitter*u
	return time.Duration(float64(d) * scale)
}

// ClientOptions tunes a Client.
type ClientOptions struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout is the per-request I/O deadline (default 30s).
	RequestTimeout time.Duration
	// DialRetries is how many times a (re)dial is attempted before a
	// request fails, with exponential backoff between attempts
	// (default 4).
	DialRetries int
	// BackoffBase is the first retry delay, doubling per attempt
	// (default 50ms).
	BackoffBase time.Duration
	// BackoffJitter randomizes each retry delay to delay*[1-j, 1+j), so
	// a restarted server is not hit by a synchronized thundering herd of
	// redials from clients that all lost their connection at the same
	// instant. 0 uses the default 0.5; negative disables jitter.
	BackoffJitter float64
}

func (o *ClientOptions) normalize() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DialRetries <= 0 {
		o.DialRetries = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffJitter == 0 {
		o.BackoffJitter = 0.5
	}
	if o.BackoffJitter < 0 {
		o.BackoffJitter = 0
	}
	if o.BackoffJitter > 1 {
		o.BackoffJitter = 1
	}
}

// remoteRef binds a client-visible descriptor to the server-session
// generation it was opened under: descriptors don't survive a reconnect
// (the server reclaimed them), so stale ones fail with ErrBadFD locally
// instead of silently aliasing a new session's descriptors.
type remoteRef struct {
	gen int
	fd  uint32
}

// Client is a remote mount: it speaks the viewserver protocol and
// implements vfs.Mount, so training code swaps it in for a local
// *vfs.FS unchanged. Safe for concurrent use; requests are serialized
// on the single connection.
type Client struct {
	network, addr string
	opts          ClientOptions

	mu     sync.Mutex
	conn   net.Conn
	gen    int
	nextID uint64
	nextFD int
	fds    map[int]remoteRef
	closed bool
}

var _ vfs.Mount = (*Client)(nil)

// Dial connects to a view server (network "tcp" or "unix") and verifies
// the session with a ping. The initial dial uses the same bounded
// backoff as reconnects.
func Dial(network, addr string, opts ClientOptions) (*Client, error) {
	opts.normalize()
	c := &Client{network: network, addr: addr, opts: opts, nextFD: 3, fds: map[int]remoteRef{}}
	if err := c.Ping(); err != nil {
		return nil, err
	}
	return c, nil
}

// Shutdown closes the connection. Subsequent requests transparently
// redial; descriptors opened before Shutdown are invalid afterwards.
func (c *Client) Shutdown() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.dropConnLocked()
}

func (c *Client) dropConnLocked() error {
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn = nil
	}
	return err
}

// ensureConnLocked dials with bounded exponential backoff.
func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < c.opts.DialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoffDelay(c.opts.BackoffBase, attempt, c.opts.BackoffJitter, rand.Float64()))
		}
		conn, err := net.DialTimeout(c.network, c.addr, c.opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		c.conn = conn
		c.gen++
		return nil
	}
	return fmt.Errorf("viewserver: dial %s %s failed after %d attempts: %w",
		c.network, c.addr, c.opts.DialRetries, lastErr)
}

// roundTrip sends one request and reads its response. retryable ops
// (those that reference no per-session fd state) are re-sent once after
// a transparent reconnect on connection errors.
func (c *Client) roundTrip(op Op, req request, retryable bool) (uint8, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.closed = false // a deliberate Shutdown is undone by the next use
	}
	var lastErr error
	for attempt := 0; attempt <= 1; attempt++ {
		if err := c.ensureConnLocked(); err != nil {
			return 0, nil, err
		}
		req.op = op
		req.id = c.nextID
		c.nextID++
		status, payload, err := c.exchangeLocked(req)
		if err == nil {
			return status, payload, nil
		}
		lastErr = err
		c.dropConnLocked()
		if !retryable {
			break
		}
	}
	return 0, nil, fmt.Errorf("viewserver: %s: %w", op, lastErr)
}

// exchangeLocked writes the frame and reads the matching response under
// the client lock (single request in flight).
func (c *Client) exchangeLocked(req request) (uint8, []byte, error) {
	deadline := time.Now().Add(c.opts.RequestTimeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		return 0, nil, err
	}
	frame := make([]byte, frameHeaderLen, frameHeaderLen+64)
	frame = appendRequest(frame, req)
	frame = finishFrame(frame)
	if _, err := c.conn.Write(frame); err != nil {
		return 0, nil, err
	}
	body, err := readFrame(c.conn, DefaultMaxMessage)
	if err != nil {
		return 0, nil, err
	}
	cur := cursor{b: body}
	id := cur.u64()
	status := cur.u8()
	if cur.err != nil {
		return 0, nil, fmt.Errorf("%w: short response header", ErrProtocol)
	}
	if id != req.id {
		return 0, nil, fmt.Errorf("%w: response id %d for request %d", ErrProtocol, id, req.id)
	}
	return status, body[cur.off:], nil
}

// roundTripRead sends one read request and scatters the response blob
// straight into buf (no intermediate frame allocation). Read ops
// address per-session fd state, so like the other fd ops they are never
// retried across a reconnect. An io.ErrShortBuffer return means the
// server sent more than buf holds: buf carries the first len(buf)
// bytes, the rest was drained, and the connection remains usable.
func (c *Client) roundTripRead(op Op, req request, buf []byte) (uint8, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.closed = false // a deliberate Shutdown is undone by the next use
	}
	if err := c.ensureConnLocked(); err != nil {
		return 0, 0, err
	}
	req.op = op
	req.id = c.nextID
	c.nextID++
	deadline := time.Now().Add(c.opts.RequestTimeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.dropConnLocked()
		return 0, 0, fmt.Errorf("viewserver: %s: %w", op, err)
	}
	frame := make([]byte, frameHeaderLen, frameHeaderLen+64)
	frame = appendRequest(frame, req)
	frame = finishFrame(frame)
	if _, err := c.conn.Write(frame); err != nil {
		c.dropConnLocked()
		return 0, 0, fmt.Errorf("viewserver: %s: %w", op, err)
	}
	status, n, errPayload, err := readResponse(c.conn, DefaultMaxMessage, req.id, buf)
	if err != nil && !errors.Is(err, io.ErrShortBuffer) {
		c.dropConnLocked()
		return 0, 0, fmt.Errorf("viewserver: %s: %w", op, err)
	}
	if status == StatusErr {
		return status, 0, decodeError(errPayload)
	}
	return status, n, err // nil or io.ErrShortBuffer
}

// decodeError parses a StatusErr payload into the matching sentinel.
func decodeError(payload []byte) error {
	cur := cursor{b: payload}
	code := errCode(cur.u16())
	msg := cur.str()
	if cur.err != nil {
		return fmt.Errorf("%w: malformed error response", ErrProtocol)
	}
	return errFor(code, msg)
}

// Ping round-trips an empty request (health check).
func (c *Client) Ping() error {
	status, payload, err := c.roundTrip(OpPing, request{}, true)
	if err != nil {
		return err
	}
	if status == StatusErr {
		return decodeError(payload)
	}
	return nil
}

// Open opens a remote view and returns a client-local descriptor.
func (c *Client) Open(path string) (int, error) {
	status, payload, err := c.roundTrip(OpOpen, request{path: path}, true)
	if err != nil {
		return -1, err
	}
	if status == StatusErr {
		return -1, decodeError(payload)
	}
	cur := cursor{b: payload}
	rfd := cur.u32()
	cur.u64() // size: informational
	if cur.err != nil {
		return -1, fmt.Errorf("%w: malformed open response", ErrProtocol)
	}
	c.mu.Lock()
	fd := c.nextFD
	c.nextFD++
	c.fds[fd] = remoteRef{gen: c.gen, fd: rfd}
	c.mu.Unlock()
	return fd, nil
}

// ref resolves a client descriptor, rejecting descriptors from a
// previous connection generation.
func (c *Client) ref(fd int) (remoteRef, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.fds[fd]
	if !ok {
		return remoteRef{}, vfs.ErrBadFD
	}
	if r.gen != c.gen {
		delete(c.fds, fd)
		return remoteRef{}, fmt.Errorf("%w: descriptor predates reconnect", vfs.ErrBadFD)
	}
	return r, nil
}

// Read mirrors read(2) against the remote descriptor's offset,
// scatter-reading the payload directly into buf. A server blob larger
// than buf returns the filled prefix with io.ErrShortBuffer rather than
// silently dropping the tail.
func (c *Client) Read(fd int, buf []byte) (int, error) {
	r, err := c.ref(fd)
	if err != nil {
		return 0, err
	}
	status, n, err := c.roundTripRead(OpRead, request{fd: r.fd, n: uint32(len(buf))}, buf)
	if err != nil {
		return n, err
	}
	if status == StatusEOF && n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// readAllChunk is the per-request read size ReadAll uses.
const readAllChunk = 1 << 20

// ReadAll reads the remaining view content from the current offset. It
// sizes the result up front (one Size round trip), so the payload
// scatter-reads straight into its final buffer instead of growing
// through append copies.
func (c *Client) ReadAll(fd int) ([]byte, error) {
	size, err := c.Size(fd)
	if err != nil {
		return nil, err
	}
	out := make([]byte, int(size))
	filled := 0
	for {
		if filled == len(out) {
			// At capacity: confirm EOF with a small tail read (the
			// descriptor's offset is server-side state, so remaining
			// content can be shorter than Size, never longer — the tail
			// read is purely defensive).
			tail := make([]byte, 4096)
			n, err := c.Read(fd, tail)
			out = append(out, tail[:n]...)
			filled = len(out)
			if err == io.EOF || (err == nil && n == 0) {
				return out, nil
			}
			if err != nil {
				return out, err
			}
			continue
		}
		chunk := out[filled:]
		if len(chunk) > readAllChunk {
			chunk = chunk[:readAllChunk]
		}
		n, err := c.Read(fd, chunk)
		filled += n
		if err == io.EOF {
			return out[:filled], nil
		}
		if err != nil {
			return out[:filled], err
		}
		if n == 0 {
			return out[:filled], nil // defensive: no progress
		}
	}
}

// ReadAt mirrors pread(2): absolute offset, descriptor offset
// untouched, payload scattered directly into buf. Oversized server
// blobs surface as io.ErrShortBuffer like Read.
func (c *Client) ReadAt(fd int, buf []byte, off int64) (int, error) {
	r, err := c.ref(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, io.EOF
	}
	status, n, err := c.roundTripRead(OpReadAt, request{fd: r.fd, off: uint64(off), n: uint32(len(buf))}, buf)
	if err != nil {
		return n, err
	}
	if status == StatusEOF {
		return n, io.EOF
	}
	return n, nil
}

// Getxattr fetches one metadata attribute of an open view.
func (c *Client) Getxattr(fd int, name string) (string, error) {
	r, err := c.ref(fd)
	if err != nil {
		return "", err
	}
	status, payload, err := c.roundTrip(OpGetxattr, request{fd: r.fd, name: name}, false)
	if err != nil {
		return "", err
	}
	if status == StatusErr {
		return "", decodeError(payload)
	}
	cur := cursor{b: payload}
	v := cur.str()
	if cur.err != nil {
		return "", fmt.Errorf("%w: malformed getxattr response", ErrProtocol)
	}
	return v, nil
}

// Listxattr lists all attribute names of an open view.
func (c *Client) Listxattr(fd int) ([]string, error) {
	r, err := c.ref(fd)
	if err != nil {
		return nil, err
	}
	status, payload, err := c.roundTrip(OpListxattr, request{fd: r.fd}, false)
	if err != nil {
		return nil, err
	}
	if status == StatusErr {
		return nil, decodeError(payload)
	}
	return decodeStrings(payload)
}

// Size returns the byte size of an open view.
func (c *Client) Size(fd int) (int64, error) {
	r, err := c.ref(fd)
	if err != nil {
		return 0, err
	}
	status, payload, err := c.roundTrip(OpSize, request{fd: r.fd}, false)
	if err != nil {
		return 0, err
	}
	if status == StatusErr {
		return 0, decodeError(payload)
	}
	cur := cursor{b: payload}
	n := cur.i64()
	if cur.err != nil {
		return 0, fmt.Errorf("%w: malformed size response", ErrProtocol)
	}
	return n, nil
}

// Close releases the remote descriptor.
func (c *Client) Close(fd int) error {
	r, err := c.ref(fd)
	if err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.fds, fd)
	c.mu.Unlock()
	status, payload, err := c.roundTrip(OpClose, request{fd: r.fd}, false)
	if err != nil {
		return err
	}
	if status == StatusErr {
		return decodeError(payload)
	}
	return nil
}

// Readdir lists the children of a remote directory.
func (c *Client) Readdir(dir string) ([]string, error) {
	status, payload, err := c.roundTrip(OpReaddir, request{path: dir}, true)
	if err != nil {
		return nil, err
	}
	if status == StatusErr {
		return nil, decodeError(payload)
	}
	return decodeStrings(payload)
}

func decodeStrings(payload []byte) ([]string, error) {
	cur := cursor{b: payload}
	n := cur.u32()
	if int64(n) > int64(len(payload)) { // each entry needs >= 2 bytes; cheap sanity bound
		return nil, fmt.Errorf("%w: string count %d exceeds payload", ErrProtocol, n)
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, cur.str())
	}
	if cur.err != nil {
		return nil, fmt.Errorf("%w: malformed string list", ErrProtocol)
	}
	return out, nil
}
