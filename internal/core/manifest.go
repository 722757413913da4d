package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Plan manifest: the §5.5 fault-tolerance checkpoint. Chunk plans are
// deterministic functions of (task configs, dataset, seed, chunk start),
// so the manifest does not serialize the concrete graph — it records the
// inputs' fingerprint and the planned chunk starts. On restart over the
// same cache directory, a matching manifest proves the persisted objects
// were produced by compatible plans; a mismatch (different configs,
// dataset or seed) would silently serve wrong cached objects, so the
// engine refuses to reuse the cache and demands a fresh directory.

const manifestName = "sand-manifest.json"

// manifest is the persisted checkpoint.
type manifest struct {
	// Fingerprint covers task configs, dataset identity and seed.
	Fingerprint string `json:"fingerprint"`
	// ChunkEpochs is k.
	ChunkEpochs int `json:"chunk_epochs"`
	// PlannedChunks lists chunk start epochs already planned.
	PlannedChunks []int `json:"planned_chunks"`
}

// fingerprint hashes everything a plan depends on.
func (s *Service) fingerprint() string {
	h := sha256.New()
	// slack=0 keeps the hash input that persisted manifests and fleet
	// fingerprints were computed from, so their values do not change.
	fmt.Fprintf(h, "seed=%d;k=%d;coord=%v;slack=0;budget=%d;",
		s.opts.Seed, s.opts.ChunkEpochs, s.opts.Coordinate, s.opts.StorageBudget)
	tags := make([]string, 0, len(s.tasks))
	for tag := range s.tasks {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		t := s.tasks[tag]
		fmt.Fprintf(h, "task=%s;src=%s;path=%s;sampling=%+v;", t.Tag, t.Source, t.DatasetPath, t.Sampling)
		for _, st := range t.Stages {
			fmt.Fprintf(h, "stage=%s/%s;", st.Name, st.Type)
			for _, op := range st.Ops {
				fmt.Fprintf(h, "op=%s;", op.Signature())
			}
			for _, b := range st.Branches {
				fmt.Fprintf(h, "branch=%s/%.3f;", b.Condition, b.Prob)
				for _, op := range b.Ops {
					fmt.Fprintf(h, "op=%s;", op.Signature())
				}
			}
		}
	}
	// Dataset identity: names and frame counts (content hashing would be
	// exact but unnecessary — names are unique per corpus).
	ds := s.snapshot()
	for i := range ds.Videos {
		e := &ds.Videos[i]
		fmt.Fprintf(h, "video=%s/%d;", e.Spec.Name, e.Spec.Frames)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Service) manifestPath() string {
	return filepath.Join(s.opts.CacheDir, manifestName)
}

// checkpointManifest writes the manifest; called after each chunk plan.
func (s *Service) checkpointManifest() error {
	if s.opts.CacheDir == "" {
		return nil
	}
	s.mu.Lock()
	m := manifest{
		Fingerprint: s.cachedFingerprint,
		ChunkEpochs: s.opts.ChunkEpochs,
	}
	for start := range s.plannedChunks {
		m.PlannedChunks = append(m.PlannedChunks, start)
	}
	sort.Ints(m.PlannedChunks)
	s.mu.Unlock()
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return os.Rename(tmp, s.manifestPath())
}

// validateManifest checks an existing cache directory against this
// service's configuration. ErrCacheMismatch means the directory belongs
// to a different training setup and must not be reused.
func (s *Service) validateManifest() error {
	if s.opts.CacheDir == "" {
		return nil
	}
	data, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		return nil // fresh directory
	}
	if err != nil {
		return fmt.Errorf("core: manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("core: corrupt manifest: %w", err)
	}
	if m.Fingerprint != s.cachedFingerprint {
		return fmt.Errorf("%w: cache dir %s was written by a different configuration", ErrCacheMismatch, s.opts.CacheDir)
	}
	return nil
}

// ErrCacheMismatch reports a cache directory produced by an incompatible
// configuration (different tasks, dataset, seed or budgets).
var ErrCacheMismatch = fmt.Errorf("core: cache/config mismatch")
