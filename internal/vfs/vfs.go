// Package vfs implements SAND's view filesystem: the POSIX-shaped
// interface (Table 2 of the paper) through which training code opens,
// reads and stats views addressed by the Table 1 path scheme:
//
//	/{task_name}/{video_name}.mp4                  encoded video
//	/{task_name}/{video_name}/frame{index}         decoded frame
//	/{task_name}/{video_name}/frame{index}/aug{d}  augmented frame
//	/{task_name}/{epoch}/{iteration}/view          training batch
//
// The paper mounts this via FUSE; in this reproduction the filesystem is
// in-process (a sandbox cannot mount FUSE) but preserves the programming
// model: file descriptors, byte-stream reads, xattr metadata and directory
// listing. Content comes from a Provider — the SAND engine — which
// materializes a view on first access and may block until the object is
// ready, exactly like a FUSE read would.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Errors mirroring the POSIX error set the FUSE layer would surface.
var (
	// ErrNotExist corresponds to ENOENT.
	ErrNotExist = errors.New("vfs: no such view")
	// ErrBadFD corresponds to EBADF.
	ErrBadFD = errors.New("vfs: bad file descriptor")
	// ErrIsDir corresponds to EISDIR.
	ErrIsDir = errors.New("vfs: is a directory")
	// ErrNoXattr corresponds to ENODATA.
	ErrNoXattr = errors.New("vfs: no such attribute")
	// ErrInvalidPath corresponds to EINVAL.
	ErrInvalidPath = errors.New("vfs: invalid view path")
	// ErrUnavailable corresponds to EAGAIN: no backend can serve the view
	// right now (e.g. a fleet router found no live node). Retryable.
	ErrUnavailable = errors.New("vfs: no backend available")
)

// PathKind classifies a parsed view path.
type PathKind int

const (
	// KindVideo is /{task}/{video}.mp4.
	KindVideo PathKind = iota
	// KindFrame is /{task}/{video}/frame{index}.
	KindFrame
	// KindAugFrame is /{task}/{video}/frame{index}/aug{depth}.
	KindAugFrame
	// KindBatchView is /{task}/{epoch}/{iteration}/view.
	KindBatchView
)

func (k PathKind) String() string {
	switch k {
	case KindVideo:
		return "video"
	case KindFrame:
		return "frame"
	case KindAugFrame:
		return "aug_frame"
	case KindBatchView:
		return "batch_view"
	default:
		return fmt.Sprintf("PathKind(%d)", int(k))
	}
}

// Path is a parsed Table 1 view path.
type Path struct {
	Kind      PathKind
	Task      string
	Video     string
	Frame     int
	AugDepth  int
	Epoch     int
	Iteration int
	// Raw is the original path string.
	Raw string
}

// ParsePath parses a Table 1 path.
func ParsePath(p string) (Path, error) {
	out := Path{Raw: p, Frame: -1, AugDepth: -1, Epoch: -1, Iteration: -1}
	if !strings.HasPrefix(p, "/") {
		return out, fmt.Errorf("%w: %q is not absolute", ErrInvalidPath, p)
	}
	parts := strings.Split(strings.Trim(p, "/"), "/")
	if len(parts) < 2 || parts[0] == "" {
		return out, fmt.Errorf("%w: %q", ErrInvalidPath, p)
	}
	out.Task = parts[0]
	switch {
	case len(parts) == 2 && strings.HasSuffix(parts[1], ".mp4"):
		out.Kind = KindVideo
		out.Video = strings.TrimSuffix(parts[1], ".mp4")
		if out.Video == "" {
			return out, fmt.Errorf("%w: empty video name in %q", ErrInvalidPath, p)
		}
		return out, nil
	case len(parts) == 3 && strings.HasPrefix(parts[2], "frame"):
		idx, err := strconv.Atoi(strings.TrimPrefix(parts[2], "frame"))
		if err != nil || idx < 0 {
			return out, fmt.Errorf("%w: bad frame index in %q", ErrInvalidPath, p)
		}
		out.Kind = KindFrame
		out.Video = parts[1]
		out.Frame = idx
		return out, nil
	case len(parts) == 4 && strings.HasPrefix(parts[2], "frame") && strings.HasPrefix(parts[3], "aug"):
		idx, err := strconv.Atoi(strings.TrimPrefix(parts[2], "frame"))
		if err != nil || idx < 0 {
			return out, fmt.Errorf("%w: bad frame index in %q", ErrInvalidPath, p)
		}
		depth, err := strconv.Atoi(strings.TrimPrefix(parts[3], "aug"))
		if err != nil || depth < 0 {
			return out, fmt.Errorf("%w: bad aug depth in %q", ErrInvalidPath, p)
		}
		out.Kind = KindAugFrame
		out.Video = parts[1]
		out.Frame = idx
		out.AugDepth = depth
		return out, nil
	case len(parts) == 4 && parts[3] == "view":
		epoch, err1 := strconv.Atoi(parts[1])
		iter, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || epoch < 0 || iter < 0 {
			return out, fmt.Errorf("%w: bad epoch/iteration in %q", ErrInvalidPath, p)
		}
		out.Kind = KindBatchView
		out.Epoch = epoch
		out.Iteration = iter
		return out, nil
	}
	return out, fmt.Errorf("%w: %q matches no view scheme", ErrInvalidPath, p)
}

// String renders the canonical Table 1 path.
func (p Path) String() string {
	switch p.Kind {
	case KindVideo:
		return fmt.Sprintf("/%s/%s.mp4", p.Task, p.Video)
	case KindFrame:
		return fmt.Sprintf("/%s/%s/frame%d", p.Task, p.Video, p.Frame)
	case KindAugFrame:
		return fmt.Sprintf("/%s/%s/frame%d/aug%d", p.Task, p.Video, p.Frame, p.AugDepth)
	case KindBatchView:
		return fmt.Sprintf("/%s/%d/%d/view", p.Task, p.Epoch, p.Iteration)
	default:
		return p.Raw
	}
}

// BatchPath builds the canonical batch-view path.
func BatchPath(task string, epoch, iteration int) string {
	return fmt.Sprintf("/%s/%d/%d/view", task, epoch, iteration)
}

// View is a materialized view: the payload, its xattrs and — when the
// bytes are served by reference out of a cache — a pin keeping them
// cache-resident. Data must be treated as read-only. Release drops the
// pin (if any) and must be called when the holder is done with Data;
// it is idempotent, and the bytes themselves remain valid afterwards
// (the garbage collector owns them), only their cache residency lapses.
type View struct {
	Data    []byte
	Xattrs  map[string]string
	Pinned  bool // Data is a pinned cache-resident reference
	release func()
}

// NewView wraps an owned payload: no pin, Release is a no-op.
func NewView(data []byte, xattrs map[string]string) *View {
	return &View{Data: data, Xattrs: xattrs}
}

// NewPinnedView wraps a pinned cache reference; release runs exactly
// once, on the first Release call.
func NewPinnedView(data []byte, xattrs map[string]string, release func()) *View {
	return &View{Data: data, Xattrs: xattrs, Pinned: release != nil, release: release}
}

// Release drops the view's pin, if any. Safe on nil and idempotent.
func (v *View) Release() {
	if v == nil || v.release == nil {
		return
	}
	f := v.release
	v.release = nil
	f()
}

// PinnedProvider is an optional Provider extension for providers that
// can hand out cache-resident payloads by reference. The returned
// view's Release must be called by the consumer; until then the bytes
// are pinned against eviction.
type PinnedProvider interface {
	MaterializePinned(p Path) (*View, error)
}

// ViewOpener is an optional Mount extension: mounts that can hand a
// whole view out as a (possibly pinned) reference in one call, without
// going through the descriptor table. The zero-copy dataplane entry
// point.
type ViewOpener interface {
	OpenView(path string) (*View, error)
}

// Provider materializes view content on demand. Implementations may block
// in Materialize until the object is ready (the demand-feeding path).
type Provider interface {
	// Materialize returns the serialized view payload and its metadata
	// (exposed via Getxattr). It must return an error wrapping
	// ErrNotExist for unknown views.
	Materialize(p Path) ([]byte, map[string]string, error)
	// List returns the child entries of a directory path ("" or "/" for
	// the root).
	List(dir string) ([]string, error)
}

// Mount is the POSIX-shaped surface shared by the in-process FS and
// remote mounts (e.g. viewserver.Client). Training code written against
// Mount can swap a network-served view tree in for the local filesystem
// unchanged.
type Mount interface {
	Open(path string) (int, error)
	Read(fd int, buf []byte) (int, error)
	ReadAll(fd int) ([]byte, error)
	ReadAt(fd int, buf []byte, off int64) (int, error)
	Getxattr(fd int, name string) (string, error)
	Listxattr(fd int) ([]string, error)
	Size(fd int) (int64, error)
	Close(fd int) error
	Readdir(dir string) ([]string, error)
}

// FS is the in-process view filesystem. Safe for concurrent use.
type FS struct {
	provider Provider

	mu     sync.Mutex
	nextFD int
	open   map[int]*file
}

// Stats is a snapshot of the descriptor table.
type Stats struct {
	// OpenFDs is the number of descriptors opened and not yet closed.
	OpenFDs int
}

type file struct {
	path   Path
	data   []byte
	xattrs map[string]string
	off    int
}

var _ Mount = (*FS)(nil)

// New creates a filesystem over the provider.
func New(p Provider) *FS {
	if p == nil {
		panic("vfs: nil provider")
	}
	return &FS{provider: p, nextFD: 3, open: map[int]*file{}}
}

// Open materializes the view at path and returns a file descriptor,
// mirroring open(2). It blocks until the provider has the object ready.
func (fs *FS) Open(path string) (int, error) {
	parsed, err := ParsePath(path)
	if err != nil {
		return -1, err
	}
	data, xattrs, err := fs.provider.Materialize(parsed)
	if err != nil {
		return -1, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd := fs.nextFD
	fs.nextFD++
	fs.open[fd] = &file{path: parsed, data: data, xattrs: xattrs}
	return fd, nil
}

// OpenView materializes the view at path and returns it whole as a
// View, bypassing the descriptor table. When the provider implements
// PinnedProvider the payload is a pinned cache reference (zero-copy);
// otherwise the view owns its bytes. The caller must Release the view.
func (fs *FS) OpenView(path string) (*View, error) {
	parsed, err := ParsePath(path)
	if err != nil {
		return nil, err
	}
	var v *View
	if pp, ok := fs.provider.(PinnedProvider); ok {
		v, err = pp.MaterializePinned(parsed)
	} else {
		var data []byte
		var xattrs map[string]string
		data, xattrs, err = fs.provider.Materialize(parsed)
		if err == nil {
			v = NewView(data, xattrs)
		}
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

var _ ViewOpener = (*FS)(nil)

// Read mirrors read(2): it fills buf from the descriptor's current offset
// and advances it, returning io.EOF at end of view.
func (fs *FS) Read(fd int, buf []byte) (int, error) {
	fs.mu.Lock()
	f, ok := fs.open[fd]
	if !ok {
		fs.mu.Unlock()
		return 0, ErrBadFD
	}
	if f.off >= len(f.data) {
		fs.mu.Unlock()
		return 0, io.EOF
	}
	n := copy(buf, f.data[f.off:])
	f.off += n
	fs.mu.Unlock()
	return n, nil
}

// ReadAll reads the entire remaining view content.
func (fs *FS) ReadAll(fd int) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.open[fd]
	if !ok {
		return nil, ErrBadFD
	}
	out := make([]byte, len(f.data)-f.off)
	copy(out, f.data[f.off:])
	f.off = len(f.data)
	return out, nil
}

// ReadAt mirrors pread(2): reads at an absolute offset without moving the
// descriptor offset.
func (fs *FS) ReadAt(fd int, buf []byte, off int64) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.open[fd]
	if !ok {
		return 0, ErrBadFD
	}
	if off < 0 || off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(buf, f.data[off:])
	if n < len(buf) {
		return n, io.EOF
	}
	return n, nil
}

// Whence values for Seek, mirroring lseek(2).
const (
	// SeekSet positions relative to the start of the view.
	SeekSet = 0
	// SeekCur positions relative to the current offset.
	SeekCur = 1
	// SeekEnd positions relative to the end of the view.
	SeekEnd = 2
)

// Seek mirrors lseek(2): it repositions the descriptor's offset and
// returns the new absolute offset. Seeking past the end is allowed (reads
// there return io.EOF); seeking before the start is EINVAL.
func (fs *FS) Seek(fd int, offset int64, whence int) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.open[fd]
	if !ok {
		return 0, ErrBadFD
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = int64(f.off)
	case SeekEnd:
		base = int64(len(f.data))
	default:
		return 0, fmt.Errorf("%w: whence %d", ErrInvalidPath, whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrInvalidPath, pos)
	}
	f.off = int(pos)
	return pos, nil
}

// Getxattr mirrors getxattr(2): returns the named metadata attribute of an
// open view (e.g. frame timestamps, labels, geometry).
func (fs *FS) Getxattr(fd int, name string) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.open[fd]
	if !ok {
		return "", ErrBadFD
	}
	v, ok := f.xattrs[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoXattr, name)
	}
	return v, nil
}

// Listxattr returns all attribute names of an open view.
func (fs *FS) Listxattr(fd int) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.open[fd]
	if !ok {
		return nil, ErrBadFD
	}
	names := make([]string, 0, len(f.xattrs))
	for k := range f.xattrs {
		names = append(names, k)
	}
	return names, nil
}

// Size returns the byte size of an open view.
func (fs *FS) Size(fd int) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.open[fd]
	if !ok {
		return 0, ErrBadFD
	}
	return int64(len(f.data)), nil
}

// Close mirrors close(2) and releases the view's memory.
func (fs *FS) Close(fd int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.open[fd]; !ok {
		return ErrBadFD
	}
	delete(fs.open, fd)
	return nil
}

// Readdir lists directory entries via the provider.
func (fs *FS) Readdir(dir string) ([]string, error) {
	return fs.provider.List(dir)
}

// Stats returns a snapshot of the descriptor table.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return Stats{OpenFDs: len(fs.open)}
}
