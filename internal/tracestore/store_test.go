package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"morrigan/internal/trace"
	"morrigan/internal/workloads"
)

// testSpec returns a small-footprint workload with a distinct seed so
// per-test corpora do not collide on content.
func testSpec(seed int64) workloads.Spec {
	s := workloads.QMM()[0]
	s.Params.Seed = seed
	return s
}

// containerFiles lists the .mtc files in dir.
func containerFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".mtc") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestStoreMaterializeAndReuse checks build-on-miss, in-process reuse, and
// reuse from the manifest by a later store on the same directory.
func TestStoreMaterializeAndReuse(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(101)
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c1, err := s.Materialize(spec, 3000)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if c1.Records() != 3000 {
		t.Fatalf("Records = %d, want 3000", c1.Records())
	}
	if c1.Workload() != spec.Name {
		t.Fatalf("Workload = %q, want %q", c1.Workload(), spec.Name)
	}
	c2, err := s.Materialize(spec, 2000)
	if err != nil {
		t.Fatalf("second Materialize: %v", err)
	}
	if c1 != c2 {
		t.Fatalf("second Materialize returned a different corpus")
	}
	files := containerFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store holds %d containers, want 1: %v", len(files), files)
	}
	before, err := os.Stat(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh store on the same directory must reuse the container via the
	// manifest, not rebuild it.
	s2, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	c3, err := s2.Materialize(spec, 3000)
	if err != nil {
		t.Fatalf("Materialize after reopen: %v", err)
	}
	if c3.Records() != 3000 {
		t.Fatalf("reopened Records = %d, want 3000", c3.Records())
	}
	after, err := os.Stat(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatalf("Stat after reopen: %v", err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatalf("container rebuilt on reopen (mtime %v -> %v)", before.ModTime(), after.ModTime())
	}
}

// TestStoreRebuildOnLongerRequest checks a request exceeding the stored
// record count triggers a rebuild at the new length.
func TestStoreRebuildOnLongerRequest(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(202)
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := s.Materialize(spec, 1000); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	c, err := s.Materialize(spec, 4000)
	if err != nil {
		t.Fatalf("longer Materialize: %v", err)
	}
	if c.Records() != 4000 {
		t.Fatalf("Records after rebuild = %d, want 4000", c.Records())
	}
	e, ok := s.Manifest().Entries[spec.Hash()]
	if !ok || e.Records != 4000 {
		t.Fatalf("manifest entry = %+v, want 4000 records", e)
	}
}

// TestStoreParameterInvalidation checks that changing a generator parameter
// produces a distinct corpus instead of reusing the stale one.
func TestStoreParameterInvalidation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	a := testSpec(303)
	b := a
	b.Params.SeqFrac += 0.01
	if a.Hash() == b.Hash() {
		t.Fatalf("parameter change did not change the hash")
	}
	ca, err := s.Materialize(a, 1000)
	if err != nil {
		t.Fatalf("Materialize(a): %v", err)
	}
	cb, err := s.Materialize(b, 1000)
	if err != nil {
		t.Fatalf("Materialize(b): %v", err)
	}
	if ca == cb {
		t.Fatalf("different parameters shared a corpus")
	}
	if got := containerFiles(t, dir); len(got) != 2 {
		t.Fatalf("store holds %d containers, want 2: %v", len(got), got)
	}
	// The name is display-only: a renamed spec with identical parameters
	// shares the container.
	renamed := a
	renamed.Name = "renamed"
	cr, err := s.Materialize(renamed, 1000)
	if err != nil {
		t.Fatalf("Materialize(renamed): %v", err)
	}
	if cr != ca {
		t.Fatalf("identical parameters under a new name rebuilt the corpus")
	}
}

// TestStoreConcurrentMaterialize checks concurrent calls for one workload
// share a single build.
func TestStoreConcurrentMaterialize(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(404)
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	const goroutines = 8
	got := make([]*Corpus, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = s.Materialize(spec, 3000)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different corpus", g)
		}
	}
	if files := containerFiles(t, dir); len(files) != 1 {
		t.Fatalf("concurrent Materialize built %d containers, want 1: %v", len(files), files)
	}
}

// TestStoreDamagedContainerRebuilds checks a manifest entry pointing at a
// corrupt container is invalidated and rebuilt instead of failing forever.
func TestStoreDamagedContainerRebuilds(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(505)
	s, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Materialize(spec, 1000); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	s.Close()
	files := containerFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 container, got %v", files)
	}
	// Truncate the container.
	path := filepath.Join(dir, files[0])
	if err := os.Truncate(path, 10); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	s2, err := Open(Options{Dir: dir, ChunkRecords: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	c, err := s2.Materialize(spec, 1000)
	if err != nil {
		t.Fatalf("Materialize over damaged container: %v", err)
	}
	if c.Records() != 1000 {
		t.Fatalf("rebuilt Records = %d, want 1000", c.Records())
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("rebuilt container Verify: %v", err)
	}
}

// v1Fixture is a version-1 (deflate) container of testSpec(v1Seed)'s first
// v1Records records in 256-record chunks, written by the format-1 builder.
const (
	v1Fixture = "testdata/v1-seed606.mtc"
	v1Seed    = 606
	v1Records = 1000
)

// TestStoreRebuildsVersion1Container: a manifest entry naming a version-1
// container is dropped and rebuilt, so the store serves a current-format
// corpus of the same records and records the rebuild in its manifest.
func TestStoreRebuildsVersion1Container(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(v1Seed)
	old, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	if old[4] != 1 {
		t.Fatalf("fixture is format version %d, want 1", old[4])
	}
	// Named as the store names the workload's container, as in a store
	// directory written by the format-1 code.
	file := fmt.Sprintf("%s-%s.mtc", sanitizeName(spec.Name), spec.Hash()[:12])
	if err := os.WriteFile(filepath.Join(dir, file), old, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m := Manifest{Schema: ManifestSchemaVersion, Entries: map[string]ManifestEntry{
		spec.Hash(): {Workload: spec.Name, File: file, Records: v1Records, ChunkRecords: 256, CreatedUnix: 1},
	}}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s, err := Open(Options{Dir: dir, ChunkRecords: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	c, err := s.Materialize(spec, v1Records)
	if err != nil {
		t.Fatalf("Materialize over a version-1 container: %v", err)
	}
	want, err := trace.Slice(spec.NewReader(), v1Records)
	if err != nil {
		t.Fatalf("generating records: %v", err)
	}
	got, err := trace.Slice(c.NewReader(), v1Records+1)
	if err != nil {
		t.Fatalf("reading the rebuilt corpus: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("rebuilt corpus holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebuilt record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	m, err = ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	e, ok := m.Entries[spec.Hash()]
	if !ok || e.CreatedUnix == 1 || e.Records != v1Records {
		t.Fatalf("manifest entry after rebuild = %+v, want a rewritten %d-record entry", e, v1Records)
	}
	rebuilt, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		t.Fatalf("reading the rebuilt container: %v", err)
	}
	if rebuilt[4] != formatVersion {
		t.Fatalf("rebuilt container is format version %d, want %d", rebuilt[4], formatVersion)
	}
}

// TestStoreIngestVersion1Fails: ingesting a version-1 container fails with
// ErrCorrupt naming the version, and registers nothing.
func TestStoreIngestVersion1Fails(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(v1Seed)
	old, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	_, err = s.Ingest(spec, bytes.NewReader(old))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Ingest of a version-1 container = %v, want ErrCorrupt naming version 1", err)
	}
	if _, ok := s.ContainerPath(spec.Hash()); ok {
		t.Fatalf("a rejected container was registered in the manifest")
	}
	if files := containerFiles(t, dir); len(files) != 0 {
		t.Fatalf("a rejected container was left in the store: %v", files)
	}
}
