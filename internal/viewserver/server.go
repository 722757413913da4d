package viewserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sand/internal/obs"
	"sand/internal/vfs"
)

// DefaultReadAhead is the default prefetch depth: off. The engine's
// pre-materialization is the one look-ahead mechanism, ranked below
// demand reads; read-ahead opens batches through the demand path, so
// with it on a speculative read outranks real premat work.
const DefaultReadAhead = 0

// Options tunes a Server.
type Options struct {
	// ReadAhead is how many subsequent batch views the server prefetches
	// when a client opens /{task}/{epoch}/{iter}/view — the dataplane
	// analogue of sequential read-ahead. The zero value, which is also
	// DefaultReadAhead, disables prefetching.
	ReadAhead int
	// MaxInflight bounds concurrently executing requests per session.
	// When a client pipelines past the limit the server stops reading its
	// socket, so backpressure propagates through TCP instead of growing
	// an unbounded buffer. 0 uses the default.
	MaxInflight int
	// Obs receives the server's request latency histogram and counters.
	// Nil means no registration.
	Obs *obs.Registry
}

func (o *Options) normalize() {
	if o.ReadAhead < 0 {
		o.ReadAhead = 0
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 32
	}
}

// Stats is a typed snapshot of the server's counters. Only tests and
// bench/ read it; everything else reads the "viewserver" obs snapshot.
type Stats struct {
	// Requests counts completed requests by op name.
	Requests map[string]int64
	// BytesServed is payload bytes sent on read paths.
	BytesServed int64
	// OpenSessions is the number of live connections.
	OpenSessions int
	// OpenFDs is the number of live descriptors across all sessions.
	OpenFDs int
	// ReadaheadHits / ReadaheadMisses count batch-view opens served from
	// (or missing) the prefetch cache.
	ReadaheadHits   int64
	ReadaheadMisses int64
	// ReadaheadBytes is payload bytes currently held by unclaimed
	// prefetch entries.
	ReadaheadBytes int64
	// ZeroCopyHits counts read responses served by reference: a pooled
	// header plus the pinned cache-resident payload, written with one
	// writev. CopyFallbacks counts non-empty read responses that were
	// copied through the response buffer instead (payload not
	// cache-resident).
	ZeroCopyHits  int64
	CopyFallbacks int64
}

// Server exports a vfs.Mount over length-prefixed frames. One goroutine
// reads each connection; requests dispatch to bounded per-session worker
// goroutines so slow materializations don't serialize a session's
// independent reads.
type Server struct {
	mount vfs.Mount
	opts  Options

	histReq *obs.Histogram // per-request service time (ns)

	// Counters behind Stats and the "viewserver" obs snapshot.
	reqs        [opMax]atomic.Int64 // requests by op
	bytesServed atomic.Int64
	raHits      atomic.Int64
	raMisses    atomic.Int64
	zcHits      atomic.Int64
	zcFallbacks atomic.Int64

	mu        sync.Mutex
	listeners []net.Listener
	sessions  map[*session]struct{}
	openFDs   int
	closed    bool

	ramu    sync.Mutex
	ra      map[string]*raEntry
	raOrder []string

	// raBytes is payload bytes held by unclaimed prefetch entries.
	raBytes atomic.Int64

	wg   sync.WaitGroup // accept loops + sessions
	rawg sync.WaitGroup // read-ahead materializations
}

// raEntry is one prefetched view. done closes when materialization
// finishes (successfully or not). A successful entry holds its view —
// pinned, when the mount pins — until it is taken by an open or evicted.
type raEntry struct {
	done chan struct{}
	view *vfs.View
	err  error
}

// raCap bounds the prefetch cache (entries, not bytes): stale entries
// from abandoned sequences are evicted FIFO.
const raCap = 64

// New creates a server exporting the mount. Call Listen (or Serve) to
// start accepting connections.
func New(m vfs.Mount, opts Options) *Server {
	if m == nil {
		panic("viewserver: nil mount")
	}
	opts.normalize()
	s := &Server{
		mount:    m,
		opts:     opts,
		sessions: map[*session]struct{}{},
		ra:       map[string]*raEntry{},
		histReq:  opts.Obs.Histogram("viewserver.request_ns"),
	}
	if r := opts.Obs; r != nil {
		r.Gauge("viewserver.sessions", func() float64 { return float64(s.Stats().OpenSessions) })
		r.Gauge("viewserver.fds", func() float64 { return float64(s.Stats().OpenFDs) })
		r.Gauge("viewserver.ra_pinned_bytes", func() float64 { return float64(s.raBytes.Load()) })
		r.SnapshotFunc("viewserver", s.counters)
	}
	return s
}

// Listen starts accepting connections on network ("tcp" or "unix") and
// address, returning the bound address (useful with ":0").
func (s *Server) Listen(network, addr string) (net.Addr, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr(), nil
}

// Serve runs the accept loop on an existing listener, blocking until the
// listener closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops listeners, drops every session, reclaims their fds and
// waits for in-flight work.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	conns := make([]net.Conn, 0, len(s.sessions))
	for sess := range s.sessions {
		conns = append(conns, sess.conn)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	s.rawg.Wait()
	// Drop any prefetched views still pinned in the read-ahead cache.
	s.ramu.Lock()
	for _, e := range s.ra {
		e.view.Release()
	}
	s.ra = map[string]*raEntry{}
	s.raOrder = nil
	s.ramu.Unlock()
	s.raBytes.Store(0)
	return nil
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:        map[string]int64{},
		BytesServed:     s.bytesServed.Load(),
		ReadaheadHits:   s.raHits.Load(),
		ReadaheadMisses: s.raMisses.Load(),
		ReadaheadBytes:  s.raBytes.Load(),
		ZeroCopyHits:    s.zcHits.Load(),
		CopyFallbacks:   s.zcFallbacks.Load(),
	}
	for op := OpPing; op < opMax; op++ {
		if n := s.reqs[op].Load(); n > 0 {
			st.Requests[op.String()] = n
		}
	}
	s.mu.Lock()
	st.OpenSessions = len(s.sessions)
	st.OpenFDs = s.openFDs
	s.mu.Unlock()
	return st
}

// counters is the "viewserver" obs snapshot: op.<name> for every op
// that ran, bytes.served, readahead.hit/miss, dataplane.zerocopy.hit and
// dataplane.copy.fallback.
func (s *Server) counters() map[string]int64 {
	st := s.Stats()
	m := map[string]int64{
		"bytes.served":            st.BytesServed,
		"readahead.hit":           st.ReadaheadHits,
		"readahead.miss":          st.ReadaheadMisses,
		"dataplane.zerocopy.hit":  st.ZeroCopyHits,
		"dataplane.copy.fallback": st.CopyFallbacks,
	}
	for op, n := range st.Requests {
		m["op."+op] = n
	}
	return m
}

// session is one connection's state: a private fd namespace reclaimed on
// disconnect.
type session struct {
	srv  *Server
	conn net.Conn

	wmu sync.Mutex // serializes response frames

	mu     sync.Mutex
	nextFD uint32
	fds    map[uint32]*handle
	closed bool
}

// handle is an open view: the fully materialized payload plus metadata,
// held as a (possibly pinned) reference. The server holds no underlying
// vfs descriptors across requests, so a dying session can never leak
// engine state; the view's pin is released when the descriptor closes
// or the session dies. view is set once at creation and never
// reassigned, and releasing a pin never invalidates the bytes (the GC
// owns them), so an in-flight read racing a close stays correct.
type handle struct {
	mu   sync.Mutex
	view *vfs.View
	off  int
}

func (s *Server) serveConn(conn net.Conn) {
	sess := &session{srv: s, conn: conn, nextFD: 3, fds: map[uint32]*handle{}}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()

	sem := make(chan struct{}, s.opts.MaxInflight)
	var handlers sync.WaitGroup
	for {
		body, err := readFrame(conn, DefaultMaxMessage)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				// Clean protocol error: tell the client why before
				// dropping the now-unframeable connection.
				sess.sendError(0, ErrTooLarge, err.Error())
			}
			break
		}
		req, derr := decodeRequest(body)
		if derr != nil {
			sess.sendError(req.id, ErrProtocol, derr.Error())
			break
		}
		sem <- struct{}{} // backpressure: stop reading when the session is saturated
		handlers.Add(1)
		go func(req request) {
			defer handlers.Done()
			defer func() { <-sem }()
			s.handle(sess, req)
		}(req)
	}
	handlers.Wait()
	conn.Close()

	// Reclaim the session and its descriptors, dropping their pins.
	sess.mu.Lock()
	sess.closed = true
	fds := sess.fds
	sess.fds = nil
	sess.mu.Unlock()
	for _, h := range fds {
		h.view.Release()
	}
	s.mu.Lock()
	delete(s.sessions, sess)
	s.openFDs -= len(fds)
	s.mu.Unlock()
}

func (s *Server) handle(sess *session, req request) {
	if s.histReq != nil {
		reqStart := time.Now()
		defer func() { s.histReq.Observe(time.Since(reqStart).Nanoseconds()) }()
	}
	s.reqs[req.op].Add(1)
	switch req.op {
	case OpPing:
		sess.send(req.id, StatusOK, nil)
	case OpOpen:
		s.handleOpen(sess, req)
	case OpRead:
		s.handleRead(sess, req)
	case OpReadAt:
		s.handleReadAt(sess, req)
	case OpGetxattr:
		h, ok := sess.lookup(req.fd)
		if !ok {
			sess.sendError(req.id, vfs.ErrBadFD, fmt.Sprintf("fd %d", req.fd))
			return
		}
		v, ok := h.view.Xattrs[req.name]
		if !ok {
			sess.sendError(req.id, vfs.ErrNoXattr, req.name)
			return
		}
		sess.send(req.id, StatusOK, func(b []byte) []byte { return appendString(b, v) })
	case OpListxattr:
		h, ok := sess.lookup(req.fd)
		if !ok {
			sess.sendError(req.id, vfs.ErrBadFD, fmt.Sprintf("fd %d", req.fd))
			return
		}
		names := make([]string, 0, len(h.view.Xattrs))
		for k := range h.view.Xattrs {
			names = append(names, k)
		}
		sort.Strings(names)
		sess.sendStrings(req.id, names)
	case OpSize:
		h, ok := sess.lookup(req.fd)
		if !ok {
			sess.sendError(req.id, vfs.ErrBadFD, fmt.Sprintf("fd %d", req.fd))
			return
		}
		sess.send(req.id, StatusOK, func(b []byte) []byte {
			return appendU64(b, uint64(len(h.view.Data)))
		})
	case OpReaddir:
		names, err := s.mount.Readdir(req.path)
		if err != nil {
			sess.sendError(req.id, err, err.Error())
			return
		}
		sess.sendStrings(req.id, names)
	case OpClose:
		sess.mu.Lock()
		h, ok := sess.fds[req.fd]
		if ok {
			delete(sess.fds, req.fd)
		}
		sess.mu.Unlock()
		if !ok {
			sess.sendError(req.id, vfs.ErrBadFD, fmt.Sprintf("fd %d", req.fd))
			return
		}
		h.view.Release()
		s.mu.Lock()
		s.openFDs--
		s.mu.Unlock()
		sess.send(req.id, StatusOK, nil)
	}
}

func (s *Server) handleOpen(sess *session, req request) {
	v, err := s.materialize(req.path)
	if err != nil {
		sess.sendError(req.id, err, err.Error())
		return
	}
	h := &handle{view: v}
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		v.Release()
		return
	}
	fd := sess.nextFD
	sess.nextFD++
	sess.fds[fd] = h
	sess.mu.Unlock()
	s.mu.Lock()
	s.openFDs++
	s.mu.Unlock()
	sess.send(req.id, StatusOK, func(b []byte) []byte {
		b = appendU32(b, fd)
		return appendU64(b, uint64(len(v.Data)))
	})
}

// maxReadChunk keeps a read response within the frame limit.
const maxReadChunk = DefaultMaxMessage - 64

func (s *Server) handleRead(sess *session, req request) {
	h, ok := sess.lookup(req.fd)
	if !ok {
		sess.sendError(req.id, vfs.ErrBadFD, fmt.Sprintf("fd %d", req.fd))
		return
	}
	n := int(req.n)
	if n > maxReadChunk {
		n = maxReadChunk
	}
	h.mu.Lock()
	data := h.view.Data
	if h.off >= len(data) {
		h.mu.Unlock()
		sess.send(req.id, StatusEOF, func(b []byte) []byte { return appendBlob(b, nil) })
		return
	}
	if rem := len(data) - h.off; n > rem {
		n = rem
	}
	chunk := data[h.off : h.off+n]
	h.off += n
	h.mu.Unlock()
	s.bytesServed.Add(int64(n))
	sess.sendPayload(req.id, StatusOK, chunk, h.view.Pinned)
}

func (s *Server) handleReadAt(sess *session, req request) {
	h, ok := sess.lookup(req.fd)
	if !ok {
		sess.sendError(req.id, vfs.ErrBadFD, fmt.Sprintf("fd %d", req.fd))
		return
	}
	want := int(req.n)
	if want > maxReadChunk {
		want = maxReadChunk
	}
	data := h.view.Data
	off := int64(req.off)
	if off < 0 || off >= int64(len(data)) {
		sess.send(req.id, StatusEOF, func(b []byte) []byte { return appendBlob(b, nil) })
		return
	}
	n := want
	if rem := len(data) - int(off); n > rem {
		n = rem
	}
	chunk := data[off : int(off)+n]
	s.bytesServed.Add(int64(n))
	status := StatusOK
	if n < int(req.n) {
		status = StatusEOF // pread short of the request: data + EOF, like vfs.ReadAt
	}
	sess.sendPayload(req.id, status, chunk, h.view.Pinned)
}

func (sess *session) lookup(fd uint32) (*handle, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	h, ok := sess.fds[fd]
	return h, ok
}

// --- materialization + read-ahead ---

// materialize resolves a path to its view, serving batch views from the
// prefetch cache when the sequential read-ahead got there first (the
// entry's pin transfers to the caller), and scheduling the next views
// of the sequence either way.
func (s *Server) materialize(path string) (*vfs.View, error) {
	parsed, perr := vfs.ParsePath(path)
	if perr != nil || parsed.Kind != vfs.KindBatchView || s.opts.ReadAhead == 0 {
		return s.load(path)
	}
	if e := s.raTake(path); e != nil {
		<-e.done
		if e.err == nil {
			s.raBytes.Add(-int64(len(e.view.Data)))
			s.raHits.Add(1)
			s.scheduleReadahead(parsed)
			return e.view, nil
		}
		// A failed prefetch is not a hit; fall through to a live load.
	}
	s.raMisses.Add(1)
	v, err := s.load(path)
	if err == nil {
		s.scheduleReadahead(parsed)
	}
	return v, err
}

// load materializes one view through the mount. Mounts implementing
// vfs.ViewOpener (the in-process FS) hand the whole payload out in one
// call — pinned and by reference when the provider pins; the generic
// path copies through the descriptor surface and releases the
// underlying descriptor immediately.
func (s *Server) load(path string) (*vfs.View, error) {
	if vo, ok := s.mount.(vfs.ViewOpener); ok {
		return vo.OpenView(path)
	}
	fd, err := s.mount.Open(path)
	if err != nil {
		return nil, err
	}
	defer s.mount.Close(fd)
	data, err := s.mount.ReadAll(fd)
	if err != nil {
		return nil, err
	}
	xattrs := map[string]string{}
	if names, err := s.mount.Listxattr(fd); err == nil {
		for _, name := range names {
			if v, err := s.mount.Getxattr(fd, name); err == nil {
				xattrs[name] = v
			}
		}
	}
	return vfs.NewView(data, xattrs), nil
}

// raTake claims (and removes) the prefetch entry for path, if any.
func (s *Server) raTake(path string) *raEntry {
	s.ramu.Lock()
	defer s.ramu.Unlock()
	e, ok := s.ra[path]
	if !ok {
		return nil
	}
	delete(s.ra, path)
	for i, p := range s.raOrder {
		if p == path {
			s.raOrder = append(s.raOrder[:i], s.raOrder[i+1:]...)
			break
		}
	}
	return e
}

// scheduleReadahead prefetches the next Options.ReadAhead iterations of
// the batch sequence containing p. A prefetch past the end of an epoch
// names no planned batch: it fails fast with vfs.ErrNotExist, before the
// engine does any work, and is dropped rather than cached.
func (s *Server) scheduleReadahead(p vfs.Path) {
	s.ramu.Lock()
	defer s.ramu.Unlock()
	for i := 1; i <= s.opts.ReadAhead; i++ {
		next := vfs.BatchPath(p.Task, p.Epoch, p.Iteration+i)
		if _, ok := s.ra[next]; ok {
			continue
		}
		if len(s.ra) >= raCap && !s.evictOneLocked() {
			return
		}
		e := &raEntry{done: make(chan struct{})}
		s.ra[next] = e
		s.raOrder = append(s.raOrder, next)
		s.rawg.Add(1)
		go func(path string, e *raEntry) {
			defer s.rawg.Done()
			defer close(e.done)
			e.view, e.err = s.load(path)
			if e.err != nil {
				// Don't cache failures: drop the entry so a later real
				// open retries (and reports) the error itself.
				s.raTake(path)
			} else {
				s.raBytes.Add(int64(len(e.view.Data)))
			}
		}(next, e)
	}
}

// evictOneLocked drops the oldest completed prefetch entry. Returns false
// if every cached entry is still materializing (then we skip scheduling
// more rather than block).
func (s *Server) evictOneLocked() bool {
	for i, p := range s.raOrder {
		e := s.ra[p]
		if e == nil {
			continue
		}
		select {
		case <-e.done:
			delete(s.ra, p)
			s.raOrder = append(s.raOrder[:i], s.raOrder[i+1:]...)
			if e.err == nil {
				s.raBytes.Add(-int64(len(e.view.Data)))
			}
			e.view.Release()
			return true
		default:
		}
	}
	return false
}

// --- response encoding ---

// respPool recycles response frame buffers on the hot read path.
var respPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 32<<10)
		return &b
	},
}

// send encodes and writes one response frame. payload (if non-nil)
// appends the op-specific body.
func (sess *session) send(id uint64, status uint8, payload func(b []byte) []byte) {
	bp := respPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, 0, 0, 0, 0)
	b = appendU64(b, id)
	b = append(b, status)
	if payload != nil {
		b = payload(b)
	}
	b = finishFrame(b)
	sess.wmu.Lock()
	_, err := sess.conn.Write(b)
	sess.wmu.Unlock()
	if err != nil {
		// The reader loop will notice the dead conn and reclaim state.
		sess.conn.Close()
	}
	*bp = b
	if cap(b) <= 1<<20 { // don't pin giant buffers in the pool
		respPool.Put(bp)
	}
}

// sendPayload writes a read response whose body is one u32-length blob.
// Pinned payloads go out zero-copy: a small pooled header plus the
// cache-resident chunk, handed to the kernel as one segmented write
// (net.Buffers → writev), so the payload bytes never land in an
// intermediate buffer. Unpinned payloads take the contiguous copying
// path. The byte stream on the wire is identical either way.
func (sess *session) sendPayload(id uint64, status uint8, chunk []byte, pinned bool) {
	srv := sess.srv
	if !pinned || len(chunk) == 0 {
		if len(chunk) > 0 { // empty EOF frames are not fallbacks
			srv.zcFallbacks.Add(1)
		}
		sess.send(id, status, func(b []byte) []byte { return appendBlob(b, chunk) })
		return
	}
	srv.zcHits.Add(1)
	bp := respPool.Get().(*[]byte)
	hdr := (*bp)[:0]
	hdr = append(hdr, 0, 0, 0, 0)
	hdr = appendU64(hdr, id)
	hdr = append(hdr, status)
	hdr = appendU32(hdr, uint32(len(chunk)))
	binary.BigEndian.PutUint32(hdr[:frameHeaderLen], uint32(len(hdr)-frameHeaderLen+len(chunk)))
	bufs := net.Buffers{hdr, chunk}
	sess.wmu.Lock()
	_, err := bufs.WriteTo(sess.conn)
	sess.wmu.Unlock()
	if err != nil {
		sess.conn.Close()
	}
	*bp = hdr
	respPool.Put(bp)
}

func (sess *session) sendError(id uint64, err error, msg string) {
	code := codeFor(err)
	sess.send(id, StatusErr, func(b []byte) []byte {
		b = appendU16(b, uint16(code))
		return appendString(b, msg)
	})
}

func (sess *session) sendStrings(id uint64, names []string) {
	sess.send(id, StatusOK, func(b []byte) []byte {
		b = appendU32(b, uint32(len(names)))
		for _, n := range names {
			b = appendString(b, n)
		}
		return b
	})
}

func appendU16(dst []byte, v uint16) []byte { return append(dst, byte(v>>8), byte(v)) }

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
