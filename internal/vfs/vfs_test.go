package vfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
)

// fakeProvider serves canned content for tests.
type fakeProvider struct {
	mu     sync.Mutex
	calls  int
	views  map[string][]byte
	xattrs map[string]map[string]string
}

func newFakeProvider() *fakeProvider {
	return &fakeProvider{
		views: map[string][]byte{
			"/train/v1.mp4":         []byte("encoded-video-bytes"),
			"/train/v1/frame3":      []byte("frame-3-pixels"),
			"/train/v1/frame3/aug1": []byte("aug-frame-pixels"),
			"/train/0/5/view":       []byte("batch-epoch0-iter5"),
		},
		xattrs: map[string]map[string]string{
			"/train/0/5/view": {"timestamps": "0,33,66", "labels": "archery"},
		},
	}
}

func (p *fakeProvider) Materialize(path Path) ([]byte, map[string]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	data, ok := p.views[path.String()]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotExist, path.String())
	}
	return data, p.xattrs[path.String()], nil
}

func (p *fakeProvider) List(dir string) ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for k := range p.views {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

func TestParsePathTable1(t *testing.T) {
	cases := []struct {
		in   string
		kind PathKind
	}{
		{"/train/video_0001.mp4", KindVideo},
		{"/train/video_0001/frame12", KindFrame},
		{"/train/video_0001/frame12/aug2", KindAugFrame},
		{"/train/3/128/view", KindBatchView},
	}
	for _, c := range cases {
		p, err := ParsePath(c.in)
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", c.in, err)
		}
		if p.Kind != c.kind {
			t.Fatalf("ParsePath(%q).Kind = %v, want %v", c.in, p.Kind, c.kind)
		}
		if p.String() != c.in {
			t.Fatalf("round trip %q -> %q", c.in, p.String())
		}
	}
	p, _ := ParsePath("/train/v/frame12/aug2")
	if p.Task != "train" || p.Video != "v" || p.Frame != 12 || p.AugDepth != 2 {
		t.Fatalf("fields wrong: %+v", p)
	}
	b, _ := ParsePath("/train/3/128/view")
	if b.Epoch != 3 || b.Iteration != 128 {
		t.Fatalf("batch fields wrong: %+v", b)
	}
}

func TestParsePathErrors(t *testing.T) {
	bad := []string{
		"relative/path",
		"/",
		"/onlytask",
		"/t/v/framex",
		"/t/v/frame-1",
		"/t/v/frame1/augx",
		"/t/x/y/view",
		"/t/1/-2/view",
		"/t/v/frame1/aug1/extra",
		"/t/.mp4",
	}
	for _, in := range bad {
		if _, err := ParsePath(in); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("ParsePath(%q) = %v, want ErrInvalidPath", in, err)
		}
	}
}

func TestBatchPath(t *testing.T) {
	if got := BatchPath("train", 2, 17); got != "/train/2/17/view" {
		t.Fatalf("BatchPath = %q", got)
	}
}

func TestOpenReadClose(t *testing.T) {
	fs := New(newFakeProvider())
	fd, err := fs.Open("/train/0/5/view")
	if err != nil {
		t.Fatal(err)
	}
	if fd < 3 {
		t.Fatalf("fd %d collides with stdio", fd)
	}
	buf := make([]byte, 5)
	n, err := fs.Read(fd, buf)
	if err != nil || n != 5 || string(buf) != "batch" {
		t.Fatalf("Read = %d %v %q", n, err, buf[:n])
	}
	rest, err := fs.ReadAll(fd)
	if err != nil || string(rest) != "-epoch0-iter5" {
		t.Fatalf("ReadAll = %q %v", rest, err)
	}
	if _, err := fs.Read(fd, buf); err != io.EOF {
		t.Fatalf("Read at EOF = %v", err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("double close = %v", err)
	}
	if st := fs.Stats(); st.OpenFDs != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOpenMissingView(t *testing.T) {
	fs := New(newFakeProvider())
	if _, err := fs.Open("/train/ghost.mp4"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing view open = %v", err)
	}
	if _, err := fs.Open("not-a-path"); !errors.Is(err, ErrInvalidPath) {
		t.Fatalf("invalid path open = %v", err)
	}
}

func TestReadBadFD(t *testing.T) {
	fs := New(newFakeProvider())
	if _, err := fs.Read(99, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
		t.Fatal("Read on bad fd")
	}
	if _, err := fs.ReadAll(99); !errors.Is(err, ErrBadFD) {
		t.Fatal("ReadAll on bad fd")
	}
	if _, err := fs.ReadAt(99, make([]byte, 1), 0); !errors.Is(err, ErrBadFD) {
		t.Fatal("ReadAt on bad fd")
	}
	if _, err := fs.Getxattr(99, "x"); !errors.Is(err, ErrBadFD) {
		t.Fatal("Getxattr on bad fd")
	}
	if _, err := fs.Size(99); !errors.Is(err, ErrBadFD) {
		t.Fatal("Size on bad fd")
	}
	if _, err := fs.Listxattr(99); !errors.Is(err, ErrBadFD) {
		t.Fatal("Listxattr on bad fd")
	}
}

func TestReadAt(t *testing.T) {
	fs := New(newFakeProvider())
	fd, _ := fs.Open("/train/v1.mp4") // "encoded-video-bytes"
	buf := make([]byte, 5)
	n, err := fs.ReadAt(fd, buf, 8)
	if err != nil || n != 5 || string(buf) != "video" {
		t.Fatalf("ReadAt = %d %v %q", n, err, buf[:n])
	}
	// Offset-preserving: sequential read still starts at 0.
	n, _ = fs.Read(fd, buf)
	if string(buf[:n]) != "encod" {
		t.Fatalf("ReadAt moved the offset: %q", buf[:n])
	}
	if _, err := fs.ReadAt(fd, buf, 1000); err != io.EOF {
		t.Fatalf("ReadAt past end = %v", err)
	}
	// Short read at the tail returns EOF alongside data.
	n, err = fs.ReadAt(fd, buf, int64(len("encoded-video-bytes"))-2)
	if n != 2 || err != io.EOF {
		t.Fatalf("tail ReadAt = %d %v", n, err)
	}
}

func TestGetxattr(t *testing.T) {
	fs := New(newFakeProvider())
	fd, _ := fs.Open("/train/0/5/view")
	ts, err := fs.Getxattr(fd, "timestamps")
	if err != nil || ts != "0,33,66" {
		t.Fatalf("Getxattr = %q %v", ts, err)
	}
	if _, err := fs.Getxattr(fd, "nope"); !errors.Is(err, ErrNoXattr) {
		t.Fatalf("missing xattr = %v", err)
	}
	names, err := fs.Listxattr(fd)
	if err != nil || len(names) != 2 {
		t.Fatalf("Listxattr = %v %v", names, err)
	}
}

func TestSize(t *testing.T) {
	fs := New(newFakeProvider())
	fd, _ := fs.Open("/train/v1/frame3")
	sz, err := fs.Size(fd)
	if err != nil || sz != int64(len("frame-3-pixels")) {
		t.Fatalf("Size = %d %v", sz, err)
	}
}

func TestReaddir(t *testing.T) {
	fs := New(newFakeProvider())
	entries, err := fs.Readdir("/")
	if err != nil || len(entries) != 4 {
		t.Fatalf("Readdir = %v %v", entries, err)
	}
}

func TestConcurrentOpens(t *testing.T) {
	fs := New(newFakeProvider())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fd, err := fs.Open("/train/v1/frame3")
				if err != nil {
					t.Errorf("Open: %v", err)
					return
				}
				data, err := fs.ReadAll(fd)
				if err != nil || string(data) != "frame-3-pixels" {
					t.Errorf("ReadAll: %q %v", data, err)
					return
				}
				if err := fs.Close(fd); err != nil {
					t.Errorf("Close: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fs.Stats().OpenFDs != 0 {
		t.Fatal("leaked fds")
	}
}

func TestFDsAreUnique(t *testing.T) {
	fs := New(newFakeProvider())
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		fd, err := fs.Open("/train/v1.mp4")
		if err != nil {
			t.Fatal(err)
		}
		if seen[fd] {
			t.Fatalf("fd %d reused while open", fd)
		}
		seen[fd] = true
	}
}

func TestPathKindString(t *testing.T) {
	if KindVideo.String() != "video" || KindBatchView.String() != "batch_view" {
		t.Fatal("kind strings wrong")
	}
}

func TestSeek(t *testing.T) {
	fs := New(newFakeProvider())
	fd, _ := fs.Open("/train/v1.mp4") // "encoded-video-bytes" (19 bytes)
	pos, err := fs.Seek(fd, 8, SeekSet)
	if err != nil || pos != 8 {
		t.Fatalf("SeekSet = %d, %v", pos, err)
	}
	buf := make([]byte, 5)
	n, _ := fs.Read(fd, buf)
	if string(buf[:n]) != "video" {
		t.Fatalf("read after seek = %q", buf[:n])
	}
	// SeekCur from 13 by -5 lands back at 8.
	pos, err = fs.Seek(fd, -5, SeekCur)
	if err != nil || pos != 8 {
		t.Fatalf("SeekCur = %d, %v", pos, err)
	}
	// SeekEnd -5 = len-5.
	pos, err = fs.Seek(fd, -5, SeekEnd)
	if err != nil || pos != int64(len("encoded-video-bytes"))-5 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	n, _ = fs.Read(fd, buf)
	if string(buf[:n]) != "bytes" {
		t.Fatalf("tail read = %q", buf[:n])
	}
	// Past-the-end is allowed; the next read is EOF.
	if _, err := fs.Seek(fd, 100, SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(fd, buf); err != io.EOF {
		t.Fatalf("read past end = %v", err)
	}
	// Invalid cases.
	if _, err := fs.Seek(fd, -1, SeekSet); err == nil {
		t.Fatal("negative seek accepted")
	}
	if _, err := fs.Seek(fd, 0, 9); err == nil {
		t.Fatal("bad whence accepted")
	}
	if _, err := fs.Seek(999, 0, SeekSet); !errors.Is(err, ErrBadFD) {
		t.Fatal("seek on bad fd")
	}
}
