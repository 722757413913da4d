package viewserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"sand/internal/obs"
	"sand/internal/storage"
	"sand/internal/vfs"
)

// pinnedProvider is a testProvider whose payloads live in a real object
// store and are handed out as pinned references, like production batch
// views: the serve path is by-reference, eviction passes run against
// the same store, and every pin must reconcile to zero on release.
type pinnedProvider struct {
	p     testProvider
	store *storage.Store
}

func newPinnedProvider(t testing.TB, budget int64, shards int) *pinnedProvider {
	t.Helper()
	st, err := storage.Open(storage.Options{MemBudget: budget, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return &pinnedProvider{p: newProvider(), store: st}
}

func (pp *pinnedProvider) Materialize(vp vfs.Path) ([]byte, map[string]string, error) {
	return pp.p.Materialize(vp)
}

func (pp *pinnedProvider) List(dir string) ([]string, error) { return pp.p.List(dir) }

func (pp *pinnedProvider) MaterializePinned(vp vfs.Path) (*vfs.View, error) {
	data, xattrs, err := pp.p.Materialize(vp)
	if err != nil {
		return nil, err
	}
	key := "/zc" + vp.String()
	obj, pin, gerr := pp.store.GetPinned(key)
	if gerr != nil {
		// Not resident: populate, then pin. A racing eviction between
		// Put and GetPinned degrades to the unpinned fallback below.
		if perr := pp.store.Put(&storage.Object{Key: key, Data: data, Used: true, Ephemeral: true}); perr != nil {
			return vfs.NewView(data, xattrs), nil
		}
		obj, pin, gerr = pp.store.GetPinned(key)
		if gerr != nil {
			return vfs.NewView(data, xattrs), nil
		}
	}
	if pin == nil {
		return vfs.NewView(obj.Data, xattrs), nil
	}
	return vfs.NewPinnedView(obj.Data, xattrs, pin.Release), nil
}

// startPinnedServer launches a server whose mount pins batch payloads
// out of a store with the given budget/shards.
func startPinnedServer(t *testing.T, budget int64, shards int, opts Options) (*Server, *pinnedProvider, string) {
	t.Helper()
	pp := newPinnedProvider(t, budget, shards)
	srv := New(vfs.New(pp), opts)
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, pp, addr.String()
}

// TestZeroCopyServesPinned: reads of pinned views go out by reference
// (zerocopy.hit counts them), the bytes match the provider exactly, and
// every pin drains once descriptors close and the server shuts down.
func TestZeroCopyServesPinned(t *testing.T) {
	reg := obs.New()
	srv, pp, addr := startPinnedServer(t, 64<<20, 4, Options{ReadAhead: 2, Obs: reg})
	c := dialT(t, addr)
	defer c.Shutdown()

	for i := 0; i < 6; i++ {
		path := vfs.BatchPath("train", 0, i)
		fd, err := c.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadAll(fd)
		if err != nil {
			t.Fatal(err)
		}
		if want := pp.p.payload(path); !bytes.Equal(got, want) {
			t.Fatalf("%s: zero-copy payload differs from provider", path)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.ZeroCopyHits == 0 {
		t.Fatalf("no zero-copy hits: %+v", st)
	}
	// The node's obs registry exports the same counters.
	exported := map[string]float64{}
	for _, s := range reg.Gather() {
		exported[s.Name] = s.Value
	}
	if got := exported["viewserver.dataplane.zerocopy.hit"]; got != float64(st.ZeroCopyHits) {
		t.Fatalf("exported zerocopy.hit=%v, server says %d", got, st.ZeroCopyHits)
	}
	if got := exported["viewserver.op.open"]; got != 6 {
		t.Fatalf("exported op.open=%v, want 6", got)
	}
	// Close the server: read-ahead entries and any leftover descriptors
	// release their pins; accounting must reconcile exactly.
	c.Shutdown()
	srv.Close()
	if pb := pp.store.PinnedBytes(); pb != 0 {
		t.Fatalf("pinned bytes after shutdown = %d, want 0", pb)
	}
}

// TestUnpinnedIsFallback: a mount without pinning (plain testProvider)
// serves correctly and counts every payload as a copy fallback.
func TestUnpinnedIsFallback(t *testing.T) {
	srv, _, addr := startServer(t, Options{})
	c := dialT(t, addr)
	defer c.Shutdown()
	fd, err := c.Open("/train/0/0/view")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAll(fd); err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	st := srv.Stats()
	if st.ZeroCopyHits != 0 {
		t.Fatalf("unpinned mount produced %d zero-copy hits", st.ZeroCopyHits)
	}
	if st.CopyFallbacks == 0 {
		t.Fatal("unpinned payload not counted as fallback")
	}
}

// TestZeroCopyEvictionStress hammers concurrent remote batch reads
// while the store runs eviction passes at a tight budget and a churn
// writer floods it with junk: every response must match the provider
// byte-for-byte (no pinned payload mutated or freed mid-response), and
// all pins must reconcile to zero afterwards. Run with -race.
func TestZeroCopyEvictionStress(t *testing.T) {
	srv, pp, addr := startPinnedServer(t, 96<<10, 4, Options{ReadAhead: 2})

	const clients = 4
	const iters = 40
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := dialT(t, addr)
			defer c.Shutdown()
			for i := 0; i < iters; i++ {
				path := vfs.BatchPath("train", ci%2, (ci*5+i)%16)
				fd, err := c.Open(path)
				if err != nil {
					errs[ci] = err
					return
				}
				got, err := c.ReadAll(fd)
				if err != nil {
					errs[ci] = fmt.Errorf("%s: %w", path, err)
					return
				}
				if want := pp.p.payload(path); !bytes.Equal(got, want) {
					errs[ci] = fmt.Errorf("%s: payload corrupted under eviction churn", path)
					return
				}
				if err := c.Close(fd); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci)
	}
	// Churn writer: keep the store over its watermark so eviction passes
	// run concurrently with pinned serves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		junk := make([]byte, 8<<10)
		for i := 0; i < 400; i++ {
			obj := &storage.Object{Key: fmt.Sprintf("/junk/%d", i%32), Data: junk, Used: true, Ephemeral: true}
			if err := pp.store.Put(obj); err != nil {
				return
			}
		}
	}()
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", ci, err)
		}
	}
	srv.Close()
	if pb := pp.store.PinnedBytes(); pb != 0 {
		t.Fatalf("pinned bytes after stress = %d, want 0", pb)
	}
}

// fakeBlobServer speaks just enough of the protocol to answer pings and
// opens, and answers every read with the full payload regardless of the
// requested length — a misbehaving peer for the short-buffer contract.
func fakeBlobServer(t *testing.T, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					body, err := readFrame(conn, DefaultMaxMessage)
					if err != nil {
						return
					}
					req, err := decodeRequest(body)
					if err != nil {
						return
					}
					resp := make([]byte, frameHeaderLen)
					resp = appendU64(resp, req.id)
					switch req.op {
					case OpOpen:
						resp = append(resp, StatusOK)
						resp = appendU32(resp, 3)
						resp = appendU64(resp, uint64(len(payload)))
					case OpRead, OpReadAt:
						resp = append(resp, StatusOK)
						resp = appendBlob(resp, payload) // ignores req.n on purpose
					default:
						resp = append(resp, StatusOK)
					}
					if _, err := conn.Write(finishFrame(resp)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestShortBufferRead is the regression for the silent-truncation bug:
// a server blob longer than the caller's buffer must surface as
// io.ErrShortBuffer with the prefix delivered — and the connection must
// stay framed (the excess is drained, later requests still work).
func TestShortBufferRead(t *testing.T) {
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	addr := fakeBlobServer(t, payload)
	c := dialT(t, addr)
	defer c.Shutdown()

	fd, err := c.Open("/train/0/0/view")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := c.Read(fd, buf)
	if !errors.Is(err, io.ErrShortBuffer) {
		t.Fatalf("Read with short buffer: err=%v, want io.ErrShortBuffer", err)
	}
	if n != len(buf) || !bytes.Equal(buf, payload[:len(buf)]) {
		t.Fatalf("Read returned %d bytes %x, want prefix %x", n, buf[:n], payload[:len(buf)])
	}
	n, err = c.ReadAt(fd, buf, 0)
	if !errors.Is(err, io.ErrShortBuffer) || n != len(buf) {
		t.Fatalf("ReadAt with short buffer: n=%d err=%v, want %d io.ErrShortBuffer", n, err, len(buf))
	}
	// The frame remainder was drained: the session still round-trips.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after short-buffer drain: %v", err)
	}
	// A big-enough buffer gets the whole blob with no error.
	full := make([]byte, len(payload))
	n, err = c.Read(fd, full)
	if err != nil || n != len(payload) || !bytes.Equal(full, payload) {
		t.Fatalf("full read after drain: n=%d err=%v", n, err)
	}
}
