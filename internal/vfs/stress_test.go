package vfs

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// stressProvider materializes deterministic payloads keyed by path so
// many goroutines can validate what they read.
type stressProvider struct{}

func (stressProvider) Materialize(p Path) ([]byte, map[string]string, error) {
	raw := p.String()
	data := make([]byte, 512+len(raw))
	for i := range data {
		data[i] = byte(i * (len(raw) + 1))
	}
	return data, map[string]string{
		"user.sand.path": raw,
		"user.sand.kind": p.Kind.String(),
	}, nil
}

func (stressProvider) List(dir string) ([]string, error) {
	return []string{"a", "b", "c"}, nil
}

// TestFSConcurrentStress hammers one FS from many goroutines with
// interleaved Open/Read/ReadAt/Seek/Getxattr/Listxattr/Size/Close on a
// small set of shared paths, with concurrent Stats and Readdir readers.
// Run under -race (the CI gate does) to catch fd-table races.
func TestFSConcurrentStress(t *testing.T) {
	fs := New(stressProvider{})
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = fmt.Sprintf("/stress/%d/%d/view", i%2, i)
	}

	const workers = 32
	const iters = 200
	var wg sync.WaitGroup
	errCh := make(chan error, workers)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < iters; i++ {
				path := paths[(w+i)%len(paths)]
				fd, err := fs.Open(path)
				if err != nil {
					errCh <- fmt.Errorf("open %s: %w", path, err)
					return
				}
				size, err := fs.Size(fd)
				if err != nil || size == 0 {
					errCh <- fmt.Errorf("size %s: %d, %w", path, size, err)
					return
				}
				if _, err := fs.ReadAt(fd, buf, size/2); err != nil && !errors.Is(err, io.EOF) {
					errCh <- fmt.Errorf("readat: %w", err)
					return
				}
				if _, err := fs.Read(fd, buf); err != nil && !errors.Is(err, io.EOF) {
					errCh <- fmt.Errorf("read: %w", err)
					return
				}
				if _, err := fs.Seek(fd, 0, SeekSet); err != nil {
					errCh <- fmt.Errorf("seek: %w", err)
					return
				}
				if i%3 == 0 {
					if _, err := fs.ReadAll(fd); err != nil {
						errCh <- fmt.Errorf("readall: %w", err)
						return
					}
				}
				if v, err := fs.Getxattr(fd, "user.sand.path"); err != nil || v != path {
					errCh <- fmt.Errorf("getxattr %s: %q, %w", path, v, err)
					return
				}
				if names, err := fs.Listxattr(fd); err != nil || len(names) != 2 {
					errCh <- fmt.Errorf("listxattr: %v, %w", names, err)
					return
				}
				if err := fs.Close(fd); err != nil {
					errCh <- fmt.Errorf("close: %w", err)
					return
				}
				// Closed descriptors must be invalid immediately.
				if _, err := fs.Read(fd, buf); !errors.Is(err, ErrBadFD) {
					errCh <- fmt.Errorf("read after close: %w, want ErrBadFD", err)
					return
				}
			}
		}(w)
	}
	// Concurrent observers: stats snapshots and directory listings must
	// never race with the op path.
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Each worker holds at most one descriptor at a time.
			if st := fs.Stats(); st.OpenFDs > workers {
				select {
				case errCh <- fmt.Errorf("%d fds open with %d workers", st.OpenFDs, workers):
				default:
				}
				return
			}
			if _, err := fs.Readdir("/stress"); err != nil {
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	obs.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if st := fs.Stats(); st.OpenFDs != 0 {
		t.Fatalf("leaked %d fds", st.OpenFDs)
	}
}
