// Package resultstore is the durable half of campaign result reuse: an
// on-disk content-addressed store of completed simulation results keyed by
// the canonical job key (runner.Job.Key). Where the in-process
// runner.ResultCache deduplicates identical jobs within one process, the
// result store persists them — results survive process exits and are shared
// across runs and across machines (every fabric coordinator backs its
// campaigns with one; see internal/fabric), so a re-run of a campaign whose
// results are already stored simulates zero jobs.
//
// Layout: one file per result at <dir>/<key[:2]>/<key>.json — 256 shard
// directories keep any single directory small at campaign-corpus scale. Each
// file is a CRC-guarded envelope around the record, written to a temp file,
// fsynced and atomically renamed into place, so a crash can never leave a
// half-written record under a valid key; a torn temp file is invisible to
// lookups and swept by Compact. On open, the store scans every shard,
// verifies each record's checksum and re-derives its key from the stored
// components (machine hash, workload hashes, scale) — a record that fails
// either check is skipped (and removable with Compact), so hash-version
// bumps or hand-edited files degrade to re-simulation, never to wrong
// results.
//
// Duplicate puts resolve first-write-wins with an equality check: a put
// whose stats match the stored record is a no-op, and one whose stats differ
// fails, so a straggling worker can never change a result another consumer
// already merged.
package resultstore

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"morrigan/internal/atomicfile"
	"morrigan/internal/runner"
	"morrigan/internal/sampling"
	"morrigan/internal/sim"
)

// SchemaVersion identifies the stored-record format.
const SchemaVersion = 1

// castagnoli is the CRC-32C table, matching the corpus container checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is the stored form of one completed job. The key's components are
// stored alongside the stats so the scan can verify the key still derives
// from them; the display fields are informational.
type Record struct {
	Key        string    `json:"key"`
	Machine    string    `json:"machine"`
	Workloads  []string  `json:"workloads"`
	Warmup     uint64    `json:"warmup"`
	Measure    uint64    `json:"measure"`
	Experiment string    `json:"experiment,omitempty"`
	Config     string    `json:"config,omitempty"`
	Workload   string    `json:"workload,omitempty"`
	Stats      sim.Stats `json:"stats"`
	// Sampling marks sampled results; its policy participates in key
	// re-derivation, so a sampled record can never be served to a full-run
	// job or vice versa.
	Sampling *sampling.Outcome `json:"sampling,omitempty"`
}

// policy extracts the record's sampling policy for key re-derivation,
// nil-safe.
func (r *Record) policy() *sampling.Policy {
	if r.Sampling == nil {
		return nil
	}
	return &r.Sampling.Policy
}

// envelope is the on-disk file shape: the record's compact JSON bytes plus a
// CRC-32C over exactly those bytes. RawMessage preserves the bytes verbatim
// through a decode, so verification checksums what was actually read.
type envelope struct {
	Schema int             `json:"schema"`
	CRC32C uint32          `json:"crc32c"`
	Record json.RawMessage `json:"record"`
}

// Store is the on-disk result store. All methods are safe for concurrent
// use; the in-memory index mirrors the verified on-disk records.
type Store struct {
	dir string

	mu      sync.Mutex
	records map[string]Record
	skipped int // damaged or unverifiable files seen by the last scan
}

// Open opens (creating if necessary) the store directory and scans every
// shard, indexing verified records and counting damaged ones (see Skipped).
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{dir: dir, records: make(map[string]Record)}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len reports how many verified results the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Skipped reports how many files the opening scan could not verify (bad
// JSON, checksum mismatch, key that no longer derives from its components).
// Compact removes them.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Lookup returns the stored payload for key, if present.
func (s *Store) Lookup(key string) (runner.Stored, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[key]
	return runner.Stored{Stats: r.Stats, Sampling: r.Sampling}, ok
}

// Get returns the full stored record for key, if present.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[key]
	return r, ok
}

// Records returns every stored record, in unspecified order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.records))
	for _, r := range s.records {
		out = append(out, r)
	}
	return out
}

// Put persists one completed result under key (which must be the result
// job's canonical key). First-write-wins: if the key is already stored with
// equal stats the put is a no-op; differing stats are an error, because a
// stored result must never change underneath consumers that merged it.
// Failed results are rejected — the store only ever holds reusable stats.
//
// Store implements runner.ResultStore.
func (s *Store) Put(key string, res runner.Result) error {
	if res.Err != nil {
		return fmt.Errorf("resultstore: refusing to store failed result for %s", res.Job.Name())
	}
	hashes := make([]string, len(res.Job.Workloads))
	for i, w := range res.Job.Workloads {
		hashes[i] = w.Hash()
	}
	rec := Record{
		Key:        key,
		Machine:    res.Job.Machine.Hash(),
		Workloads:  hashes,
		Warmup:     res.Job.Warmup,
		Measure:    res.Job.Measure,
		Experiment: res.Job.Experiment,
		Config:     res.Job.Config,
		Workload:   res.Job.Workload,
		Stats:      res.Stats,
		Sampling:   res.Sampling,
	}
	if derived := runner.DeriveSampledJobKey(rec.Machine, rec.Workloads, rec.Warmup, rec.Measure, rec.policy()); derived != key {
		return fmt.Errorf("resultstore: key %.12s… does not derive from the result's components", key)
	}

	s.mu.Lock()
	prev, dup := s.records[key]
	if !dup {
		// Claim the key before the disk write so concurrent puts of the same
		// key resolve in-process: the first writes, later ones equality-check.
		s.records[key] = rec
	}
	s.mu.Unlock()
	if dup {
		if prev.Stats == rec.Stats && sameOutcome(prev.Sampling, rec.Sampling) {
			return nil
		}
		return fmt.Errorf("resultstore: %.12s…: stats differ from the stored record (first write wins)", key)
	}

	if err := s.write(rec); err != nil {
		s.mu.Lock()
		delete(s.records, key)
		s.mu.Unlock()
		return err
	}
	return nil
}

// write persists one verified record: marshal, checksum, temp-file write,
// fsync, atomic rename into the key's shard.
func (s *Store) write(rec Record) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	env, err := json.Marshal(envelope{
		Schema: SchemaVersion,
		CRC32C: crc32.Checksum(raw, castagnoli),
		Record: raw,
	})
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	shard := filepath.Join(s.dir, rec.Key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	err = atomicfile.Write(filepath.Join(shard, rec.Key+".json"), func(f *os.File) error {
		_, err := f.Write(append(env, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("resultstore: writing %.12s…: %w", rec.Key, err)
	}
	return nil
}

// scan walks every shard directory, loading verified records into the index.
func (s *Store) scan() error {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	records := make(map[string]Record)
	skipped := 0
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		shard := filepath.Join(s.dir, sh.Name())
		files, err := os.ReadDir(shard)
		if err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
				continue
			}
			rec, err := readRecord(filepath.Join(shard, name))
			if err != nil || rec.Key != strings.TrimSuffix(name, ".json") || !strings.HasPrefix(rec.Key, sh.Name()) {
				skipped++
				continue
			}
			records[rec.Key] = rec
		}
	}
	s.mu.Lock()
	s.records = records
	s.skipped = skipped
	s.mu.Unlock()
	return nil
}

// sameOutcome reports whether two sampling outcomes are equal (both nil, or
// equal by value).
func sameOutcome(a, b *sampling.Outcome) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// readRecord loads and verifies one stored file: envelope schema, CRC over
// the record bytes, and key re-derivation from the stored components.
func readRecord(path string) (Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	rec, err := decodeRecord(raw)
	if err != nil {
		return Record{}, fmt.Errorf("resultstore: %s: %w", path, err)
	}
	return rec, nil
}

// decodeRecord verifies and decodes one stored file's bytes: envelope shape,
// schema, CRC over the record bytes, and key re-derivation from the stored
// components (including the sampling policy for sampled records). It is the
// store's entire untrusted-input surface — corrupt bytes of any shape must
// come back as an error, never a panic or a silently wrong record (see
// FuzzEnvelope).
func decodeRecord(raw []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return Record{}, err
	}
	if env.Schema != SchemaVersion {
		return Record{}, fmt.Errorf("schema %d, want %d", env.Schema, SchemaVersion)
	}
	if got := crc32.Checksum(env.Record, castagnoli); got != env.CRC32C {
		return Record{}, fmt.Errorf("checksum %#08x, envelope says %#08x", got, env.CRC32C)
	}
	var rec Record
	if err := json.Unmarshal(env.Record, &rec); err != nil {
		return Record{}, err
	}
	if derived := runner.DeriveSampledJobKey(rec.Machine, rec.Workloads, rec.Warmup, rec.Measure, rec.policy()); derived != rec.Key {
		return Record{}, fmt.Errorf("key does not derive from stored components")
	}
	return rec, nil
}

// sweep walks every shard collecting the files the store cannot verify —
// damaged records, stale temp files from interrupted puts, and records whose
// keys no longer derive from their components — removing them when remove is
// set. Paths are returned store-relative.
func (s *Store) sweep(remove bool) ([]string, error) {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var paths []string
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		shard := filepath.Join(s.dir, sh.Name())
		files, err := os.ReadDir(shard)
		if err != nil {
			return paths, fmt.Errorf("resultstore: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(shard, f.Name())
			ok := false
			if strings.HasSuffix(f.Name(), ".json") && !strings.HasPrefix(f.Name(), ".") {
				rec, rerr := readRecord(path)
				ok = rerr == nil && rec.Key == strings.TrimSuffix(f.Name(), ".json") && strings.HasPrefix(rec.Key, sh.Name())
			}
			if !ok {
				if remove {
					if rerr := os.Remove(path); rerr != nil {
						return paths, fmt.Errorf("resultstore: %w", rerr)
					}
				}
				paths = append(paths, filepath.Join(sh.Name(), f.Name()))
			}
		}
	}
	return paths, nil
}

// Reclaimable reports — without removing anything — the store-relative paths
// of every file Compact would delete. The dry-run half of `fabric gc`.
func (s *Store) Reclaimable() ([]string, error) {
	return s.sweep(false)
}

// Compact removes every file the store cannot verify — damaged records,
// stale temp files from interrupted puts, and records whose keys no longer
// derive from their components — and re-scans. It returns how many files it
// removed.
func (s *Store) Compact() (removed int, err error) {
	paths, err := s.sweep(true)
	if err != nil {
		return len(paths), err
	}
	return len(paths), s.scan()
}

// Store implements runner.ResultStore.
var _ runner.ResultStore = (*Store)(nil)
