package core

import (
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sand/internal/config"
	"sand/internal/frame"
	"sand/internal/obs"
	"sand/internal/vfs"
	"sand/internal/viewserver"
)

// decodedXattrs is the reference for batchXattrs: it decodes the whole
// batch, verifying every frame's checksum, and derives the attributes from
// the decoded clips.
func decodedXattrs(p vfs.Path, data []byte) (map[string]string, error) {
	batch, err := DecodeBatch(data)
	if err != nil {
		return nil, err
	}
	xattrs := map[string]string{
		"user.sand.clips":  strconv.Itoa(batch.Len()),
		"user.sand.epoch":  strconv.Itoa(p.Epoch),
		"user.sand.iter":   strconv.Itoa(p.Iteration),
		"user.sand.labels": strings.Join(batch.Labels, ","),
	}
	if batch.Len() > 0 && batch.Clips[0].Len() > 0 {
		var ts []string
		for _, f := range batch.Clips[0].Frames {
			ts = append(ts, strconv.FormatInt(f.PTS, 10))
		}
		xattrs["user.sand.timestamps"] = strings.Join(ts, ",")
		w, h, c := batch.Clips[0].Geometry()
		xattrs["user.sand.geometry"] = fmt.Sprintf("%dx%dx%d", w, h, c)
		xattrs["user.sand.frames_per_clip"] = strconv.Itoa(batch.Clips[0].Len())
	}
	return xattrs, nil
}

// readView reads a view's bytes and every attribute it lists through m.
func readView(t *testing.T, m vfs.Mount, path string) ([]byte, map[string]string) {
	t.Helper()
	fd, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(fd)
	data, err := m.ReadAll(fd)
	if err != nil {
		t.Fatal(err)
	}
	names, err := m.Listxattr(fd)
	if err != nil {
		t.Fatal(err)
	}
	xattrs := map[string]string{}
	for _, name := range names {
		if xattrs[name], err = m.Getxattr(fd, name); err != nil {
			t.Fatal(err)
		}
	}
	return data, xattrs
}

// TestBatchXattrsMatchDecode: on every batch of one oracle fixture epoch,
// read through the in-process filesystem and through a view server, the
// header-only attributes equal those derived from the decoded batch.
func TestBatchXattrsMatchDecode(t *testing.T) {
	s, err := New(Options{
		Tasks:       []*config.Task{miniTask(t, "mini")},
		Dataset:     miniDataset(t, 4),
		ChunkEpochs: 2,
		TotalEpochs: 2,
		MemBudget:   64 << 20,
		Workers:     4,
		Coordinate:  true,
		Seed:        11,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := viewserver.New(s.FS(), viewserver.Options{Obs: obs.New()})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := viewserver.Dial("tcp", addr.String(), viewserver.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Shutdown()

	iters, err := s.ItersInEpoch("mini", 0)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		path := vfs.BatchPath("mini", 0, it)
		p, err := vfs.ParsePath(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]vfs.Mount{"local": s.FS(), "remote": cli} {
			data, got := readView(t, m, path)
			want, err := decodedXattrs(p, data)
			if err != nil {
				t.Fatalf("%s %s: %v", name, path, err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%s %s: xattrs %v, decoding the batch gives %v", name, path, got, want)
			}
		}
	}
}

// batchSeeds is the FuzzDecodeBatch corpus: EncodeBatch outputs of 1–3
// clips of 1–4 frames, with and without labels, and truncations of each.
func batchSeeds() [][]byte {
	rng := rand.New(rand.NewSource(21))
	var seeds [][]byte
	for clips := 1; clips <= 3; clips++ {
		for frames := 1; frames <= 4; frames++ {
			for _, labelled := range []bool{false, true} {
				b := &frame.Batch{Epoch: clips, Iteration: frames}
				for i := 0; i < clips; i++ {
					fs := make([]*frame.Frame, frames)
					for j := range fs {
						fs[j] = frame.New(3, 2, 3)
						rng.Read(fs[j].Pix)
						fs[j].Index, fs[j].PTS = j, int64(33*j+rng.Intn(5))
					}
					c, err := frame.NewClip(fs)
					if err != nil {
						panic(err)
					}
					b.Clips = append(b.Clips, c)
					if labelled {
						b.Labels = append(b.Labels, fmt.Sprintf("label%d", i))
					}
				}
				full, err := EncodeBatch(b)
				if err != nil {
					panic(err)
				}
				seeds = append(seeds, full)
				for _, cut := range []int{15, 16, 23, 24, 28, 60, len(full) / 2, len(full) - 1} {
					if cut < len(full) {
						seeds = append(seeds, full[:cut])
					}
				}
			}
		}
	}
	v1, err := hex.DecodeString(v1Batch)
	if err != nil {
		panic(err)
	}
	return append(seeds, v1, v1[:len(v1)-3])
}

// v1Batch is an SBA1 batch as the v1 writers produced it: epoch 1,
// iteration 3, and one clip labelled "run" of two 2x2x1 frames whose
// sample i is seed + 37i (seeds 1 and 9, indices 0 and 2, PTS 0 and 80).
const v1Batch = "314142530100000001000000030000007000000003000000314c43530200000030000000314d46530200000002000000010000000000000000000000000000007801000400fbff01254b25010000ffff0132009730000000314d46530200000002000000010000000200000050000000000000007801000400fbff09255325010000ffff016200a772756e"

// TestDecodeV1Batch decodes the checked-in v1 batch, and reads the same
// attributes from its headers.
func TestDecodeV1Batch(t *testing.T) {
	data, err := hex.DecodeString(v1Batch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch != 1 || b.Iteration != 3 || b.Len() != 1 || b.Clips[0].Len() != 2 || !slices.Equal(b.Labels, []string{"run"}) {
		t.Fatalf("decoded epoch %d iteration %d, %d clips, labels %v", b.Epoch, b.Iteration, b.Len(), b.Labels)
	}
	for i, seed := range []byte{1, 9} {
		f := b.Clips[0].Frames[i]
		want := frame.New(2, 2, 1)
		for j := range want.Pix {
			want.Pix[j] = seed + byte(37*j)
		}
		if !f.Equal(want) || f.Index != 2*i || f.PTS != int64(80*i) {
			t.Fatalf("frame %d: %+v, want pixels %v, index %d, PTS %d", i, f, want.Pix, 2*i, 80*i)
		}
	}
	p := vfs.Path{Kind: vfs.KindBatchView, Task: "t", Epoch: 1, Iteration: 3}
	got, err := batchXattrs(p, data)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := decodedXattrs(p, data); !maps.Equal(got, want) {
		t.Fatalf("header walk gives %v, decoding gives %v", got, want)
	}
}

// FuzzDecodeBatch: neither DecodeBatch nor the header walk behind
// batchXattrs panics on hostile bytes, and whenever DecodeBatch accepts a
// batch the header walk accepts it too and publishes exactly the
// attributes derived from the decoded batch. (So a batch the header walk
// rejects, DecodeBatch rejects.)
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	p := vfs.Path{Kind: vfs.KindBatchView, Task: "t", Epoch: 2, Iteration: 5}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, walkErr := batchXattrs(p, data)
		want, decodeErr := decodedXattrs(p, data)
		if decodeErr != nil {
			return
		}
		if walkErr != nil {
			t.Fatalf("DecodeBatch accepted a batch the header walk rejects: %v", walkErr)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("header walk gives %v, decoding the batch gives %v", got, want)
		}
	})
}
