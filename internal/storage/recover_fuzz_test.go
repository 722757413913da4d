package storage

import (
	"bytes"
	"compress/flate"
	"os"
	"path/filepath"
	"testing"
)

// deflated returns data flate-compressed, the form of an .objz spill.
func deflated(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPromotionInflateBounded: a small .objz that inflates far past the
// memory budget fails its promotion instead of allocating the whole
// stream and returning an object the store's own Put refuses.
func TestPromotionInflateBounded(t *testing.T) {
	dir := t.TempDir()
	bomb := deflated(t, make([]byte, 1<<20))
	if err := os.WriteFile(filepath.Join(dir, "bomb.objz"), bomb, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{MemBudget: 4 << 10, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if obj, err := s.Get("/bomb"); err == nil {
		t.Fatalf("promoted %d bytes under a %d-byte budget", len(obj.Data), 4<<10)
	}
}

// FuzzRecover writes arbitrary bytes as one .obj or .objz spill, recovers
// the directory and promotes the key. Recovery must account the file at
// its size, and the promotion must fail or return at most the memory
// budget — never panic.
func FuzzRecover(f *testing.F) {
	const budget = 4 << 10
	valid := deflated(f, bytes.Repeat([]byte("spill payload "), 64))
	f.Add(valid, true)
	f.Add(valid[:len(valid)/2], true)
	f.Add(deflated(f, make([]byte, 1<<20)), true)
	f.Add([]byte("verbatim spill"), false)
	f.Fuzz(func(t *testing.T, data []byte, compressed bool) {
		dir := t.TempDir()
		name := "k.obj"
		if compressed {
			name += "z"
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{MemBudget: budget, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().DiskBytes; got != int64(len(data)) {
			t.Fatalf("recovered disk bytes %d, file is %d", got, len(data))
		}
		if obj, err := s.Get("/k"); err == nil && len(obj.Data) > budget {
			t.Fatalf("promoted %d bytes under a %d-byte budget", len(obj.Data), budget)
		}
	})
}
