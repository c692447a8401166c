package tracestore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"morrigan/internal/atomicfile"
	"morrigan/internal/workloads"
)

// ManifestSchemaVersion identifies the manifest.json schema.
const ManifestSchemaVersion = 1

// manifestName is the store's index file inside the corpus directory.
const manifestName = "manifest.json"

// Manifest maps workload parameter hashes to their corpus containers. It is
// the store's durable index: an entry whose hash no longer matches the
// requested workload's parameters is simply never found, so parameter
// changes invalidate corpora without any version bookkeeping.
type Manifest struct {
	Schema  int                      `json:"schema"`
	Entries map[string]ManifestEntry `json:"entries"`
}

// ManifestEntry describes one materialised workload.
type ManifestEntry struct {
	// Workload is the workload name the corpus was built from (informational;
	// identity is the entry's key, the parameter hash).
	Workload string `json:"workload"`
	// File is the container's filename within the corpus directory.
	File string `json:"file"`
	// Records is the container's record count.
	Records uint64 `json:"records"`
	// ChunkRecords is the container's fixed chunk size.
	ChunkRecords int `json:"chunk_records"`
	// CreatedUnix is the build time.
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Options configures a corpus store.
type Options struct {
	// Dir is the corpus directory (created if missing). Required.
	Dir string
	// ChunkRecords is the chunk size for new builds (0 = DefaultChunkRecords).
	ChunkRecords int
	// CacheBytes budgets the shared decoded-chunk LRU (0 = DefaultCacheBytes).
	CacheBytes int64
	// BuildWorkers bounds parallel chunk encoding during builds
	// (0 = GOMAXPROCS).
	BuildWorkers int
}

// Store manages a directory of corpus containers: build-on-miss
// materialisation keyed by workloads.Spec.Hash, and a shared decoded-chunk
// cache every corpus it opens plugs into, so jobs across one campaign — or
// across concurrently running campaigns on the same store — share decode
// work. All methods are safe for concurrent use.
type Store struct {
	opt   Options
	cache *Cache

	mu       sync.Mutex
	manifest Manifest
	open     map[string]*Corpus    // hash -> opened container
	building map[string]*buildWait // hash -> in-flight build
	nextID   uint64
}

// buildWait is the rendezvous for concurrent Materialize calls on one hash.
type buildWait struct {
	done chan struct{}
	c    *Corpus
	err  error
}

// Open opens (creating if necessary) the corpus directory and loads its
// manifest.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("tracestore: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{
		opt:      opt,
		cache:    NewCache(opt.CacheBytes),
		open:     make(map[string]*Corpus),
		building: make(map[string]*buildWait),
		manifest: Manifest{Schema: ManifestSchemaVersion, Entries: make(map[string]ManifestEntry)},
	}
	raw, err := os.ReadFile(filepath.Join(opt.Dir, manifestName))
	switch {
	case os.IsNotExist(err):
		// Fresh store.
	case err != nil:
		return nil, fmt.Errorf("tracestore: reading manifest: %w", err)
	default:
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("tracestore: parsing manifest: %w", err)
		}
		if m.Schema != ManifestSchemaVersion {
			return nil, fmt.Errorf("tracestore: manifest schema %d, want %d", m.Schema, ManifestSchemaVersion)
		}
		if m.Entries != nil {
			s.manifest.Entries = m.Entries
		}
	}
	return s, nil
}

// Dir returns the store's corpus directory.
func (s *Store) Dir() string { return s.opt.Dir }

// CacheStats snapshots the shared decoded-chunk cache accounting.
func (s *Store) CacheStats() CacheStats { return s.cache.Stats() }

// Manifest returns a copy of the store's manifest.
func (s *Store) Manifest() Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Manifest{Schema: s.manifest.Schema, Entries: make(map[string]ManifestEntry, len(s.manifest.Entries))}
	for k, v := range s.manifest.Entries {
		m.Entries[k] = v
	}
	return m
}

// ReadManifest loads the manifest of a corpus directory without opening a
// store (for inspection tools).
func ReadManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("tracestore: parsing manifest: %w", err)
	}
	return m, nil
}

// Materialize returns an open corpus holding at least `records` records of
// the workload, building the container first if the store has none (or only
// a shorter one) for the workload's parameter hash. Concurrent calls for the
// same workload share one build; calls for different workloads build
// independently. The returned corpus is shared — do not Close it; use
// Store.Close.
func (s *Store) Materialize(spec workloads.Spec, records uint64) (*Corpus, error) {
	key := spec.Hash()
	for {
		s.mu.Lock()
		if c, ok := s.open[key]; ok && c.records >= records {
			s.mu.Unlock()
			return c, nil
		}
		if bw, ok := s.building[key]; ok {
			s.mu.Unlock()
			<-bw.done
			if bw.err != nil {
				return nil, bw.err
			}
			if bw.c.records >= records {
				return bw.c, nil
			}
			continue // built shorter than this call needs; rebuild
		}
		if e, ok := s.manifest.Entries[key]; ok && e.Records >= records {
			c, err := s.openEntry(key, e)
			if err == nil {
				s.mu.Unlock()
				return c, nil
			}
			// A stale or damaged container invalidates the entry; fall
			// through to rebuild it.
			delete(s.manifest.Entries, key)
		}
		bw := &buildWait{done: make(chan struct{})}
		s.building[key] = bw
		s.mu.Unlock()

		c, err := s.build(spec, key, records)

		s.mu.Lock()
		delete(s.building, key)
		if err == nil {
			// A previously opened, shorter corpus for this key stays alive
			// for its existing readers; new readers get the longer one.
			s.open[key] = c
		}
		s.mu.Unlock()
		bw.c, bw.err = c, err
		close(bw.done)
		return c, err
	}
}

// openEntry opens a manifest entry's container and registers it. Caller
// holds s.mu.
func (s *Store) openEntry(key string, e ManifestEntry) (*Corpus, error) {
	c, err := OpenFile(filepath.Join(s.opt.Dir, e.File))
	if err != nil {
		return nil, err
	}
	if c.records != e.Records {
		c.Close()
		return nil, corrupt("%s: container holds %d records, manifest says %d", e.File, c.records, e.Records)
	}
	s.adoptLocked(key, e.Workload, c)
	return c, nil
}

// adoptLocked wires a freshly opened container into the store's shared
// cache. Caller holds s.mu.
func (s *Store) adoptLocked(key, workload string, c *Corpus) {
	s.nextID++
	c.id = s.nextID
	c.cache = s.cache
	c.workload = workload
	s.open[key] = c
}

// build materialises the workload into a new container and updates the
// manifest, both atomically (write to temp, rename).
func (s *Store) build(spec workloads.Spec, key string, records uint64) (*Corpus, error) {
	file := fmt.Sprintf("%s-%s.mtc", sanitizeName(spec.Name), key[:12])
	err := atomicfile.Write(filepath.Join(s.opt.Dir, file), func(f *os.File) error {
		_, err := Build(f, spec.NewReader(), records, BuildOptions{
			ChunkRecords: s.opt.ChunkRecords,
			Workers:      s.opt.BuildWorkers,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("tracestore: building %s: %w", spec.Name, err)
	}
	c, err := OpenFile(filepath.Join(s.opt.Dir, file))
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	s.adoptLocked(key, spec.Name, c)
	s.manifest.Entries[key] = ManifestEntry{
		Workload:     spec.Name,
		File:         file,
		Records:      c.records,
		ChunkRecords: c.chunkRecords,
		CreatedUnix:  time.Now().Unix(),
	}
	err = s.writeManifestLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Ingest adopts an externally produced container for spec — the fabric
// worker's fetch-by-hash path: a worker whose local store misses a workload
// streams the coordinator's container here instead of re-generating it. The
// bytes are written to a temp file, fully verified (index parse plus every
// chunk's CRC and decode — the transport is untrusted), then atomically
// renamed into the store and registered in the manifest under spec's
// parameter hash. An existing shorter container for the same hash is
// superseded, exactly as a rebuild would.
func (s *Store) Ingest(spec workloads.Spec, r io.Reader) (*Corpus, error) {
	key := spec.Hash()
	file := fmt.Sprintf("%s-%s.mtc", sanitizeName(spec.Name), key[:12])
	err := atomicfile.Write(filepath.Join(s.opt.Dir, file), func(f *os.File) error {
		if _, err := io.Copy(f, r); err != nil {
			return err
		}
		c, err := OpenFile(f.Name())
		if err != nil {
			return err
		}
		defer c.Close()
		return c.Verify()
	})
	if err != nil {
		return nil, fmt.Errorf("tracestore: ingesting %s: %w", spec.Name, err)
	}
	c, err := OpenFile(filepath.Join(s.opt.Dir, file))
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	s.adoptLocked(key, spec.Name, c)
	s.manifest.Entries[key] = ManifestEntry{
		Workload:     spec.Name,
		File:         file,
		Records:      c.records,
		ChunkRecords: c.chunkRecords,
		CreatedUnix:  time.Now().Unix(),
	}
	err = s.writeManifestLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ContainerPath returns the on-disk path of the container materialised for
// the given parameter hash, if the manifest has one — the coordinator's
// fetch-by-hash surface.
func (s *Store) ContainerPath(hash string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.manifest.Entries[hash]
	if !ok {
		return "", false
	}
	return filepath.Join(s.opt.Dir, e.File), true
}

// writeManifestLocked persists the manifest atomically. Caller holds s.mu.
func (s *Store) writeManifestLocked() error {
	raw, err := json.MarshalIndent(s.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	err = atomicfile.Write(filepath.Join(s.opt.Dir, manifestName), func(f *os.File) error {
		_, err := f.Write(append(raw, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("tracestore: writing manifest: %w", err)
	}
	return nil
}

// Close closes every container the store opened. Callers must have drained
// or closed their readers first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, c := range s.open {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.open = make(map[string]*Corpus)
	return first
}

// sanitizeName makes a workload name filesystem-safe.
func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, name)
}
