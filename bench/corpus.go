package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sand/internal/dataset"
)

// corpusSpec describes a synthetic corpus; with a seed it determines
// every byte of it.
type corpusSpec struct {
	Videos, W, H, Frames, GOP int
}

func (c corpusSpec) dirName(seed int64) string {
	return fmt.Sprintf("corpus-%dx%dx%d-f%d-g%d-s%d", c.Videos, c.W, c.H, c.Frames, c.GOP, seed)
}

// keepCorpora bounds the cache: every new seed adds a corpus, and a
// driver that runs many seeds must not fill the disk.
const keepCorpora = 24

// loadCorpus returns the corpus for (spec, seed), generating it with
// dataset.Generate and persisting it under cacheDir on first use. It is
// always returned through dataset.LoadDir, so a cached and a fresh
// corpus are the same value. genS is the generation time (0 on a cache
// hit) — it is reported beside setup_s, never inside it.
func loadCorpus(cacheDir string, spec corpusSpec, seed int64) (ds *dataset.Dataset, genS float64, err error) {
	dir := filepath.Join(cacheDir, spec.dirName(seed))
	if _, statErr := os.Stat(filepath.Join(dir, "labels.txt")); statErr != nil {
		start := time.Now()
		gen, err := dataset.Generate("bench", dataset.VideoSpec{
			W: spec.W, H: spec.H, C: 3, Frames: spec.Frames, FPS: 30, GOP: spec.GOP,
		}, spec.Videos, seed)
		if err != nil {
			return nil, 0, err
		}
		// Write beside the final name and rename, so a run killed half
		// way never leaves a partial corpus that looks complete.
		tmp := fmt.Sprintf("%s.tmp%d", dir, os.Getpid())
		if err := gen.WriteDir(tmp); err != nil {
			return nil, 0, err
		}
		if err := os.Rename(tmp, dir); err != nil {
			os.RemoveAll(tmp)
			if _, statErr := os.Stat(dir); statErr != nil {
				return nil, 0, err // not a lost race with another run
			}
		}
		genS = time.Since(start).Seconds()
		pruneCorpora(cacheDir, dir)
	}
	ds, err = dataset.LoadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	ds.Name = "bench"
	return ds, genS, nil
}

// pruneCorpora removes the oldest cached corpora beyond keepCorpora,
// never the one just written.
func pruneCorpora(cacheDir, keep string) {
	dirs, _ := filepath.Glob(filepath.Join(cacheDir, "corpus-*"))
	type aged struct {
		path string
		mod  time.Time
	}
	var old []aged
	for _, d := range dirs {
		if fi, err := os.Stat(d); err == nil && d != keep {
			old = append(old, aged{d, fi.ModTime()})
		}
	}
	sort.Slice(old, func(i, j int) bool { return old[i].mod.After(old[j].mod) })
	for i := keepCorpora - 1; i < len(old); i++ {
		os.RemoveAll(old[i].path)
	}
}

// corpusDigest hashes every video's name, label and encoded bytes.
func corpusDigest(ds *dataset.Dataset) string {
	h := sha256.New()
	for i := range ds.Videos {
		e := &ds.Videos[i]
		fmt.Fprintf(h, "%s %s %d\n", e.Spec.Name, e.Spec.Label, len(e.Video.Data))
		h.Write(e.Video.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
