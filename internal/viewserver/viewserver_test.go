package viewserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sand/internal/vfs"
)

// testProvider is a deterministic in-memory view source: payload bytes
// and xattrs are pure functions of the path, so a remote read can be
// compared byte-for-byte against a local mount over the same provider.
type testProvider struct {
	epochs int
	iters  int
}

func (p testProvider) payload(raw string) []byte {
	out := make([]byte, 4096+len(raw)*7)
	h := uint32(2166136261)
	for i := 0; i < len(raw); i++ {
		h = (h ^ uint32(raw[i])) * 16777619
	}
	for i := range out {
		h = h*1664525 + 1013904223
		out[i] = byte(h >> 24)
	}
	return out
}

func (p testProvider) Materialize(vp vfs.Path) ([]byte, map[string]string, error) {
	if vp.Kind == vfs.KindBatchView {
		if vp.Epoch >= p.epochs || vp.Iteration >= p.iters {
			return nil, nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, vp.Raw)
		}
	}
	xattrs := map[string]string{
		"user.sand.kind":     vp.Kind.String(),
		"user.sand.geometry": "2x4x16x16x3",
	}
	return p.payload(vp.String()), xattrs, nil
}

func (p testProvider) List(dir string) ([]string, error) {
	if dir == "/" || dir == "" {
		return []string{"train"}, nil
	}
	return []string{"0", "1"}, nil
}

func newProvider() testProvider { return testProvider{epochs: 4, iters: 16} }

// startServer launches a server over a fresh FS on loopback TCP.
func startServer(t *testing.T, opts Options) (*Server, *vfs.FS, string) {
	t.Helper()
	fs := vfs.New(newProvider())
	srv := New(fs, opts)
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, fs, addr.String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial("tcp", addr, ClientOptions{
		DialTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
		BackoffBase:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRemoteMatchesLocal is the core contract: every operation through
// the network mount returns byte-identical results to the in-process FS.
func TestRemoteMatchesLocal(t *testing.T) {
	_, _, addr := startServer(t, Options{})
	local := vfs.New(newProvider())
	remote := dialT(t, addr)
	defer remote.Shutdown()

	paths := []string{
		"/train/video_0001.mp4",
		"/train/video_0001/frame3",
		"/train/video_0001/frame3/aug1",
		"/train/0/0/view",
		"/train/1/5/view",
	}
	for _, path := range paths {
		lfd, err := local.Open(path)
		if err != nil {
			t.Fatalf("local open %s: %v", path, err)
		}
		rfd, err := remote.Open(path)
		if err != nil {
			t.Fatalf("remote open %s: %v", path, err)
		}

		lsize, _ := local.Size(lfd)
		rsize, err := remote.Size(rfd)
		if err != nil || rsize != lsize {
			t.Fatalf("%s: remote size %d (%v), local %d", path, rsize, err, lsize)
		}

		ldata, _ := local.ReadAll(lfd)
		rdata, err := remote.ReadAll(rfd)
		if err != nil {
			t.Fatalf("remote readall %s: %v", path, err)
		}
		if !bytes.Equal(ldata, rdata) {
			t.Fatalf("%s: remote payload differs from local", path)
		}

		lbuf, rbuf := make([]byte, 100), make([]byte, 100)
		ln, lerr := local.ReadAt(lfd, lbuf, 17)
		rn, rerr := remote.ReadAt(rfd, rbuf, 17)
		if ln != rn || !bytes.Equal(lbuf[:ln], rbuf[:rn]) || (lerr == nil) != (rerr == nil) {
			t.Fatalf("%s: ReadAt mismatch: local (%d,%v) remote (%d,%v)", path, ln, lerr, rn, rerr)
		}
		// pread near the end returns a short count plus EOF on both.
		ln, lerr = local.ReadAt(lfd, lbuf, lsize-10)
		rn, rerr = remote.ReadAt(rfd, rbuf, rsize-10)
		if ln != rn || !errors.Is(lerr, io.EOF) || !errors.Is(rerr, io.EOF) {
			t.Fatalf("%s: short ReadAt mismatch: local (%d,%v) remote (%d,%v)", path, ln, lerr, rn, rerr)
		}

		lx, _ := local.Getxattr(lfd, "user.sand.geometry")
		rx, err := remote.Getxattr(rfd, "user.sand.geometry")
		if err != nil || rx != lx {
			t.Fatalf("%s: getxattr %q (%v), want %q", path, rx, err, lx)
		}
		lnames, _ := local.Listxattr(lfd)
		rnames, err := remote.Listxattr(rfd)
		if err != nil || len(rnames) != len(lnames) {
			t.Fatalf("%s: listxattr %v (%v), want %v", path, rnames, err, lnames)
		}

		if err := remote.Close(rfd); err != nil {
			t.Fatalf("remote close: %v", err)
		}
		local.Close(lfd)
	}

	// Sequential Read through the descriptor offset.
	path := "/train/0/1/view"
	lfd, _ := local.Open(path)
	rfd, _ := remote.Open(path)
	want, _ := local.ReadAll(lfd)
	var got []byte
	buf := make([]byte, 333) // odd size to exercise chunk boundaries
	for {
		n, err := remote.Read(rfd, buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(want, got) {
		t.Fatal("sequential remote Read differs from local payload")
	}
	local.Close(lfd)
	remote.Close(rfd)

	ldirs, _ := local.Readdir("/")
	rdirs, err := remote.Readdir("/")
	if err != nil || len(rdirs) != len(ldirs) || rdirs[0] != ldirs[0] {
		t.Fatalf("readdir: %v (%v), want %v", rdirs, err, ldirs)
	}
}

// TestErrorMapping verifies POSIX-shaped sentinels survive the wire.
func TestErrorMapping(t *testing.T) {
	_, _, addr := startServer(t, Options{})
	c := dialT(t, addr)
	defer c.Shutdown()

	if _, err := c.Open("/train/9/9/view"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("missing view: %v, want ErrNotExist", err)
	}
	if _, err := c.Open("not-absolute"); !errors.Is(err, vfs.ErrInvalidPath) {
		t.Fatalf("bad path: %v, want ErrInvalidPath", err)
	}
	if _, err := c.Size(12345); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatalf("bogus local fd: %v, want ErrBadFD", err)
	}
	fd, err := c.Open("/train/0/0/view")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Getxattr(fd, "user.sand.none"); !errors.Is(err, vfs.ErrNoXattr) {
		t.Fatalf("missing xattr: %v, want ErrNoXattr", err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatalf("double close: %v, want ErrBadFD", err)
	}
}

// TestDisconnectReclaimsFDs is the acceptance scenario: one session dies
// abruptly mid-epoch with descriptors open; the server reclaims them and
// keeps serving the surviving session.
func TestDisconnectReclaimsFDs(t *testing.T) {
	srv, _, addr := startServer(t, Options{})
	a := dialT(t, addr)
	b := dialT(t, addr)
	defer b.Shutdown()

	for i := 0; i < 3; i++ {
		if _, err := a.Open(vfs.BatchPath("train", 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	bfd, err := b.Open("/train/0/0/view")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "4 open fds", func() bool { return srv.Stats().OpenFDs == 4 })
	if st := srv.Stats(); st.OpenSessions != 2 {
		t.Fatalf("sessions = %d, want 2", st.OpenSessions)
	}

	// Kill A's connection without closing its descriptors.
	a.Shutdown()
	waitFor(t, "session reclaim", func() bool {
		st := srv.Stats()
		return st.OpenSessions == 1 && st.OpenFDs == 1
	})

	// B is unaffected.
	if _, err := b.ReadAll(bfd); err != nil {
		t.Fatalf("survivor read failed: %v", err)
	}
	if err := b.Close(bfd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "no leaked fds", func() bool { return srv.Stats().OpenFDs == 0 })
}

// TestReadaheadHits: sequential batch opens are served from the prefetch
// cache after the first one.
func TestReadaheadHits(t *testing.T) {
	srv, _, addr := startServer(t, Options{ReadAhead: 2})
	c := dialT(t, addr)
	defer c.Shutdown()

	for i := 0; i < 8; i++ {
		fd, err := c.Open(vfs.BatchPath("train", 0, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAll(fd); err != nil {
			t.Fatal(err)
		}
		c.Close(fd)
	}
	st := srv.Stats()
	if st.ReadaheadHits == 0 {
		t.Fatalf("no read-ahead hits: %+v", st)
	}
	if st.ReadaheadHits+st.ReadaheadMisses != 8 {
		t.Fatalf("hit+miss = %d, want 8", st.ReadaheadHits+st.ReadaheadMisses)
	}
	if rate := st.ReadaheadHitRate(); rate < 0.5 {
		t.Fatalf("hit rate %.2f, want >= 0.5", rate)
	}
	if st.Requests["open"] != 8 || st.BytesServed == 0 {
		t.Fatalf("op/byte counters missing: %+v", st)
	}
}

// TestReadAheadZeroDisables: the zero value now means "no prefetch",
// not "default depth" — opens neither hit nor miss the cache.
func TestReadAheadZeroDisables(t *testing.T) {
	srv, _, addr := startServer(t, Options{ReadAhead: 0})
	cli := dialT(t, addr)
	defer cli.Shutdown()
	for iter := 0; iter < 4; iter++ {
		fd, err := cli.Open(fmt.Sprintf("/train/0/%d/view", iter))
		if err != nil {
			t.Fatal(err)
		}
		cli.Close(fd)
	}
	st := srv.Stats()
	if st.ReadaheadHits != 0 || st.ReadaheadMisses != 0 {
		t.Fatalf("ReadAhead:0 still touched the prefetch cache: hits=%d misses=%d", st.ReadaheadHits, st.ReadaheadMisses)
	}
}

// TestReadaheadStalledClientBounded: a client that opens views and then
// stalls — never reading them, never claiming what was prefetched past
// its last open — holds at most depth views of unclaimed prefetch, and
// every prefetch and descriptor pin drains when the server closes.
func TestReadaheadStalledClientBounded(t *testing.T) {
	const depth = 2
	srv, pp, addr := startPinnedServer(t, 64<<20, 4, Options{ReadAhead: depth})
	cli := dialT(t, addr)
	defer cli.Shutdown()

	// Iterations 0..9 share a path length, so every view is one size.
	viewSize := int64(len(pp.p.payload(vfs.BatchPath("train", 0, 1))))
	bound := depth * viewSize
	for iter := 0; iter < 6; iter++ {
		if _, err := cli.Open(vfs.BatchPath("train", 0, iter)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "prefetches to land", func() bool { return srv.Stats().ReadaheadBytes >= bound })
		time.Sleep(10 * time.Millisecond) // the stall: nothing claims the prefetches
		if got := srv.Stats().ReadaheadBytes; got > bound {
			t.Fatalf("after open %d: unclaimed prefetch bytes = %d, want ≤ %d", iter, got, bound)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().ReadaheadBytes; got != 0 {
		t.Fatalf("ReadaheadBytes after Close = %d, want 0", got)
	}
	if got := pp.store.PinnedBytes(); got != 0 {
		t.Fatalf("store pinned bytes after Close = %d, want 0", got)
	}
}

// TestOversizedFrameRejected: the server answers a too-large frame with
// a clean protocol error and drops the connection instead of dying.
func TestOversizedFrameRejected(t *testing.T) {
	srv, _, addr := startServer(t, Options{MaxMessage: 1 << 16})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<24) // body claims 16 MiB
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := readFrame(conn, 1<<16)
	if err != nil {
		t.Fatalf("expected error frame, got %v", err)
	}
	cur := cursor{b: body}
	cur.u64() // req id (0: the frame was unframeable)
	if status := cur.u8(); status != StatusErr {
		t.Fatalf("status = %d, want StatusErr", status)
	}
	if code := errCode(cur.u16()); code != codeTooLarge {
		t.Fatalf("code = %d, want codeTooLarge", code)
	}
	// Connection is closed after the error.
	if _, err := readFrame(conn, 1<<16); err == nil {
		t.Fatal("connection still alive after oversized frame")
	}
	// And the server remains healthy for new sessions.
	c := dialT(t, addr)
	defer c.Shutdown()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session cleanup", func() bool { return srv.Stats().OpenSessions == 1 })
}

// TestMalformedRequestRejected: garbage inside a well-framed request gets
// a protocol error, not a panic.
func TestMalformedRequestRejected(t *testing.T) {
	_, _, addr := startServer(t, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := make([]byte, frameHeaderLen)
	frame = append(frame, 0xde, 0xad, 0xbe, 0xef) // too short for a header
	frame = finishFrame(frame)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := readFrame(conn, DefaultMaxMessage)
	if err != nil {
		t.Fatalf("expected error frame, got %v", err)
	}
	cur := cursor{b: body}
	cur.u64()
	if status := cur.u8(); status != StatusErr {
		t.Fatalf("status = %d, want StatusErr", status)
	}
	if code := errCode(cur.u16()); code != codeProtocol {
		t.Fatalf("code = %d, want codeProtocol", code)
	}
}

// TestUnixSocket serves the same protocol over a unix domain socket.
func TestUnixSocket(t *testing.T) {
	fs := vfs.New(newProvider())
	srv := New(fs, Options{})
	sock := filepath.Join(t.TempDir(), "sand.sock")
	if _, err := srv.Listen("unix", sock); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial("unix", sock, ClientOptions{BackoffBase: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	fd, err := c.Open("/train/0/0/view")
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadAll(fd)
	if err != nil || len(data) == 0 {
		t.Fatalf("unix read: %d bytes, %v", len(data), err)
	}
	c.Close(fd)
}

// TestReconnect: after the connection drops, stateless requests redial
// transparently and descriptors from the old session fail cleanly.
func TestReconnect(t *testing.T) {
	_, _, addr := startServer(t, Options{})
	c := dialT(t, addr)
	defer c.Shutdown()

	fd, err := c.Open("/train/0/0/view")
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown() // drop the conn under the client

	// Stateless op reconnects by itself.
	fd2, err := c.Open("/train/0/1/view")
	if err != nil {
		t.Fatalf("open after reconnect: %v", err)
	}
	if _, err := c.ReadAll(fd2); err != nil {
		t.Fatal(err)
	}
	// The pre-reconnect descriptor is stale, not aliased.
	if _, err := c.ReadAll(fd); !errors.Is(err, vfs.ErrBadFD) {
		t.Fatalf("stale fd error = %v, want ErrBadFD", err)
	}
	c.Close(fd2)
}

// TestDialBackoffBounded: dialing a dead endpoint fails after the
// configured number of attempts rather than hanging.
func TestDialBackoffBounded(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	_, err = Dial("tcp", addr, ClientOptions{
		DialTimeout: 200 * time.Millisecond,
		DialRetries: 3,
		BackoffBase: 10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial to dead endpoint succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff unbounded: took %v", elapsed)
	}
}

// TestConcurrentSessions drives several clients at once through a small
// in-flight budget; everything must still complete and reconcile.
func TestConcurrentSessions(t *testing.T) {
	srv, _, addr := startServer(t, Options{MaxInflight: 2})
	const clients = 4
	const opsEach = 12
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial("tcp", addr, ClientOptions{BackoffBase: 5 * time.Millisecond})
			if err != nil {
				errs[ci] = err
				return
			}
			defer c.Shutdown()
			for i := 0; i < opsEach; i++ {
				fd, err := c.Open(vfs.BatchPath("train", ci%2, i%8))
				if err != nil {
					errs[ci] = err
					return
				}
				if _, err := c.ReadAll(fd); err != nil {
					errs[ci] = err
					return
				}
				if err := c.Close(fd); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", ci, err)
		}
	}
	waitFor(t, "all fds closed", func() bool { return srv.Stats().OpenFDs == 0 })
	st := srv.Stats()
	if st.Requests["open"] != clients*opsEach {
		t.Fatalf("opens = %d, want %d", st.Requests["open"], clients*opsEach)
	}
	if st.BytesServed == 0 {
		t.Fatal("no bytes served")
	}
}
