package runner_test

// Durable-layer contract tests: a campaign run through runner.Run over an
// on-disk resultstore, killed or damaged, then rerun on the same directory.
// The tests keep the names they had when a checkpoint journal was the
// resume layer; the result store now carries every contract they check.

import (
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"morrigan/internal/resultstore"
	"morrigan/internal/runner"
	"morrigan/internal/sim"
)

// openStore opens the store at dir, as a fresh process would.
func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runStored runs jobs on a freshly opened store at dir.
func runStored(t *testing.T, dir string, jobs []runner.Job, workers int) []runner.Result {
	t.Helper()
	results, err := runner.Run(context.Background(), jobs, runner.Options{Workers: workers, Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// jobKey returns j's canonical key, failing the test for unkeyed jobs.
func jobKey(t *testing.T, j runner.Job) string {
	t.Helper()
	key, ok := j.Key()
	if !ok {
		t.Fatalf("job %s has no key", j.Name())
	}
	return key
}

// recordPath is where the store keeps the record for key.
func recordPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key+".json")
}

// fabricated is a completed result for j with recognisable stats, made
// without simulating.
func fabricated(j runner.Job, seed uint64) runner.Result {
	return runner.Result{Job: j, Stats: sim.Stats{Instructions: seed + 1, ISTLBMisses: seed + 2}}
}

// rewriteRecord applies edit to the stored record for key and writes it
// back under a valid checksum, with the envelope schema edit leaves in
// *schema — so only the edited property can make the store reject it.
func rewriteRecord(t *testing.T, dir, key string, edit func(rec map[string]any, schema *int)) {
	t.Helper()
	path := recordPath(dir, key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Schema int             `json:"schema"`
		CRC32C uint32          `json:"crc32c"`
		Record json.RawMessage `json:"record"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(env.Record, &rec); err != nil {
		t.Fatal(err)
	}
	edit(rec, &env.Schema)
	if env.Record, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	env.CRC32C = crc32.Checksum(env.Record, crc32.MakeTable(crc32.Castagnoli))
	if b, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalResume: a second run over the same jobs on the same store must
// simulate nothing and return the first run's stats bit for bit.
func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	jobs := runner.JobsForTest(4)
	first := runStored(t, dir, jobs, 2)

	second := runStored(t, dir, jobs, 2)
	for i := range jobs {
		if second[i].Reused != runner.ReusedStore {
			t.Errorf("job %d: Reused = %q, want %q", i, second[i].Reused, runner.ReusedStore)
		}
		if !reflect.DeepEqual(first[i].Stats, second[i].Stats) {
			t.Errorf("job %d: rerun stats differ from the original run", i)
		}
	}
}

// TestJournalPartialResume is the interrupted-campaign scenario: the store
// holds only a prefix of the jobs, then the full set reruns on it —
// already-stored jobs are served, the rest simulate, and the merged results
// are bit-identical to an uninterrupted run's.
func TestJournalPartialResume(t *testing.T) {
	jobs := runner.JobsForTest(4)
	uninterrupted, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	runStored(t, dir, jobs[:2], 1) // the "killed at 50%" run

	merged := runStored(t, dir, jobs, 2)
	for i := range jobs {
		wantReused := ""
		if i < 2 {
			wantReused = runner.ReusedStore
		}
		if merged[i].Reused != wantReused {
			t.Errorf("job %d: Reused = %q, want %q", i, merged[i].Reused, wantReused)
		}
		if !reflect.DeepEqual(merged[i].Stats, uninterrupted[i].Stats) {
			t.Errorf("job %d: merged stats differ from the uninterrupted run", i)
		}
	}
}

// TestJournalTornTail: a damaged record (here cut in half) and the stray
// temp file of a put interrupted mid-write must not stop a rerun — every
// whole record is kept, and only the damaged job simulates again.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	jobs := runner.JobsForTest(3)
	runStored(t, dir, jobs, 1)

	path := recordPath(dir, jobKey(t, jobs[2]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(path), ".put-torn"), b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, dir)
	if s.Len() != len(jobs)-1 || s.Skipped() != 1 {
		t.Fatalf("after tearing a record, store holds %d records (%d skipped), want %d (1 skipped)",
			s.Len(), s.Skipped(), len(jobs)-1)
	}
	results, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 1, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if want := i < 2; (r.Reused == runner.ReusedStore) != want {
			t.Errorf("job %d: Reused = %q, want reused = %v", i, r.Reused, want)
		}
	}

	// The rerun stored the torn job again: a third open sees every record
	// and nothing damaged.
	if s := openStore(t, dir); s.Len() != len(jobs) || s.Skipped() != 0 {
		t.Errorf("after the recovery run, store holds %d records (%d skipped), want %d (0 skipped)",
			s.Len(), s.Skipped(), len(jobs))
	}
}

// TestJournalKeyVerification: a record whose stored key no longer derives
// from its stored components (hand-edited file, stale hash version) is
// skipped on open, so the job re-runs instead of reusing a wrong result.
func TestJournalKeyVerification(t *testing.T) {
	dir := t.TempDir()
	jobs := runner.JobsForTest(2)
	first := runStored(t, dir, jobs, 1)

	// Corrupt record 0's machine hash, keeping valid JSON, a valid checksum
	// and a valid key string, as a hash-version bump would.
	key0, key1 := jobKey(t, jobs[0]), jobKey(t, jobs[1])
	rewriteRecord(t, dir, key0, func(rec map[string]any, _ *int) { rec["machine"] = strings.Repeat("ab", 32) })

	s := openStore(t, dir)
	if s.Len() != 1 || s.Skipped() != 1 {
		t.Errorf("store kept %d records (%d skipped), want 1 (the unedited one; 1 skipped)", s.Len(), s.Skipped())
	}
	if _, hit := s.Lookup(key0); hit {
		t.Error("edited record should have been skipped")
	}
	if _, hit := s.Lookup(key1); !hit {
		t.Error("untouched record should have survived")
	}
	rerun, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 1, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if rerun[0].Reused != "" || rerun[1].Reused != runner.ReusedStore {
		t.Errorf("rerun Reused = %q, %q; want the edited job simulated and the other served", rerun[0].Reused, rerun[1].Reused)
	}
	if !reflect.DeepEqual(rerun[0].Stats, first[0].Stats) {
		t.Error("re-simulated job's stats differ from the original run")
	}
}

// TestJournalSchemaMismatch: a record written under a record format this
// binary does not know is never trusted — it is skipped on open, its job
// simulates again, and the fresh result replaces it.
func TestJournalSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	jobs := runner.JobsForTest(1)
	first := runStored(t, dir, jobs, 1)
	rewriteRecord(t, dir, jobKey(t, jobs[0]), func(_ map[string]any, schema *int) { *schema = 999 })

	if s := openStore(t, dir); s.Len() != 0 || s.Skipped() != 1 {
		t.Fatalf("store on schema 999 holds %d records (%d skipped), want 0 (1 skipped)", s.Len(), s.Skipped())
	}
	rerun := runStored(t, dir, jobs, 1)
	if rerun[0].Reused != "" || !reflect.DeepEqual(rerun[0].Stats, first[0].Stats) {
		t.Errorf("rerun Reused = %q (stats equal: %v), want a fresh simulation with the original stats",
			rerun[0].Reused, reflect.DeepEqual(rerun[0].Stats, first[0].Stats))
	}
	if s := openStore(t, dir); s.Len() != 1 || s.Skipped() != 0 {
		t.Errorf("after the rerun, store holds %d records (%d skipped), want 1 (0 skipped)", s.Len(), s.Skipped())
	}
}

// TestJournalSkipsUnkeyedAndFailed: instrumented (unkeyed) jobs and failed
// jobs must never be stored — serving them on a rerun would be wrong.
func TestJournalSkipsUnkeyedAndFailed(t *testing.T) {
	dir := t.TempDir()
	jobs := runner.JobsForTest(3)
	jobs[1].Instrument = func(*sim.Config) {}
	jobs[2].Machine.STLBEntries = 7 // invalid geometry: the job fails

	results, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 1, Store: openStore(t, dir)})
	if err == nil {
		t.Error("campaign with a failing job returned nil error")
	}
	if results[1].Err != nil {
		t.Errorf("instrumented job failed: %v", results[1].Err)
	}
	if results[2].Err == nil {
		t.Error("invalid-geometry job did not fail")
	}
	if s := openStore(t, dir); s.Len() != 1 {
		t.Errorf("store holds %d records, want 1 (only the keyed, succeeded job)", s.Len())
	}
}

// TestJournalConcurrentAppend: many goroutines storing distinct results
// concurrently (as a campaign's workers do) must all succeed, and every
// result must be durable — visible, bit for bit, to a reopened store.
func TestJournalConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	jobs := runner.JobsForTest(32)
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		key := jobKey(t, j)
		wg.Add(1)
		go func(i int, j runner.Job) {
			defer wg.Done()
			errs[i] = s.Put(key, fabricated(j, uint64(i)))
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s.Len() != len(jobs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(jobs))
	}

	re := openStore(t, dir)
	if re.Len() != len(jobs) || re.Skipped() != 0 {
		t.Fatalf("reopened Len = %d (%d skipped), want %d (0 skipped)", re.Len(), re.Skipped(), len(jobs))
	}
	for i, j := range jobs {
		st, ok := re.Lookup(jobKey(t, j))
		if !ok {
			t.Fatalf("job %d missing after reopen", i)
		}
		if want := fabricated(j, uint64(i)).Stats; !reflect.DeepEqual(st.Stats, want) {
			t.Errorf("job %d: reopened stats differ", i)
		}
	}
}

// TestJournalConcurrentDuplicates: concurrent puts of the same result must
// store it exactly once (whichever claim wins) and never error.
func TestJournalConcurrentDuplicates(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	job := runner.JobsForTest(1)[0]
	key := jobKey(t, job)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(key, fabricated(job, 7)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if re := openStore(t, dir); re.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", re.Len())
	}
}

// assertPutFailure runs job on s and checks the failed-persist contract: the
// store's error fails the job and the campaign, and the key is not left
// claimed — neither this store nor a reopened one serves a result that was
// never made durable.
func assertPutFailure(t *testing.T, dir string, s *resultstore.Store, job runner.Job) {
	t.Helper()
	results, err := runner.Run(context.Background(), []runner.Job{job}, runner.Options{Workers: 1, Store: s})
	if err == nil || results[0].Err == nil {
		t.Fatalf("Run error = %v, job error = %v; want the store's put failure on both", err, results[0].Err)
	}
	if results[0].Reused != "" {
		t.Errorf("Reused = %q on a failed put", results[0].Reused)
	}
	key := jobKey(t, job)
	if _, ok := s.Lookup(key); ok || s.Len() != 0 {
		t.Error("failed put left the key claimed — a rerun would skip a job that was never stored")
	}
	if re := openStore(t, dir); re.Len() != 0 {
		t.Errorf("reopened store holds %d records after a failed put, want 0", re.Len())
	}
}

// assertRecovers checks that once the fault is gone, the same store instance
// persists the job on a rerun — the failed put claimed nothing.
func assertRecovers(t *testing.T, dir string, s *resultstore.Store, job runner.Job) {
	t.Helper()
	results, err := runner.Run(context.Background(), []runner.Job{job}, runner.Options{Workers: 1, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Reused != "" {
		t.Errorf("Reused = %q, want a fresh simulation", results[0].Reused)
	}
	if re := openStore(t, dir); re.Len() != 1 {
		t.Errorf("after recovery, reopened store holds %d records, want 1", re.Len())
	}
}

// TestJournalAppendWriteError: a put that cannot write its record (here the
// shard directory cannot be created because a file sits in its place) must
// fail the job and leave nothing claimed.
func TestJournalAppendWriteError(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	job := runner.JobsForTest(1)[0]
	shard := filepath.Join(dir, jobKey(t, job)[:2])
	if err := os.WriteFile(shard, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	assertPutFailure(t, dir, s, job)

	if err := os.Remove(shard); err != nil {
		t.Fatal(err)
	}
	assertRecovers(t, dir, s, job)
}

// TestJournalAppendSyncError: same contract when the record's bytes land in
// the temp file but committing them under the key fails (here a directory
// occupies the record's path, so the rename fails) — durability was not
// achieved, so the put must fail, and the temp file must not be left behind.
func TestJournalAppendSyncError(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	job := runner.JobsForTest(1)[0]
	path := recordPath(dir, jobKey(t, job))
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	assertPutFailure(t, dir, s, job)
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") { // atomicfile temp files are dot-files
			t.Errorf("failed put left its temp file %s behind", e.Name())
		}
	}

	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	assertRecovers(t, dir, s, job)
}

// TestJournalLookupAfterPartialResume: reopen a store holding a prefix of a
// campaign, then Lookup both stored and unstored keys — the boundary the
// runner's reuse layer branches on — and extend it with the remainder.
func TestJournalLookupAfterPartialResume(t *testing.T) {
	dir := t.TempDir()
	jobs := runner.JobsForTest(6)
	s := openStore(t, dir)
	for i, j := range jobs[:3] {
		if err := s.Put(jobKey(t, j), fabricated(j, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}

	re := openStore(t, dir)
	for i, j := range jobs {
		st, ok := re.Lookup(jobKey(t, j))
		if i < 3 {
			if !ok {
				t.Fatalf("job %d: stored key missing after reopen", i)
			}
			if want := fabricated(j, uint64(i)).Stats; !reflect.DeepEqual(st.Stats, want) {
				t.Errorf("job %d: stats differ after reopen", i)
			}
		} else if ok {
			t.Errorf("job %d: unstored key unexpectedly present", i)
		}
	}
	// Storing the remainder on the reopened store extends it: a further
	// reopen sees all six.
	for i, j := range jobs[3:] {
		if err := re.Put(jobKey(t, j), fabricated(j, uint64(3+i))); err != nil {
			t.Fatal(err)
		}
	}
	if full := openStore(t, dir); full.Len() != len(jobs) {
		t.Fatalf("final Len = %d, want %d", full.Len(), len(jobs))
	}
}
