package runner

import (
	"context"
	"reflect"
	"testing"

	"morrigan/internal/sim"
)

// TestCacheDedupWithinCampaign: duplicate jobs in one campaign simulate once;
// the duplicates carry the first run's stats, marked ReusedCache.
func TestCacheDedupWithinCampaign(t *testing.T) {
	base := testJobs(2)
	// Three copies of job 0 (differing only in display fields) plus job 1.
	dup := base[0]
	dup.Config = "same-machine-different-label"
	jobs := []Job{base[0], dup, base[0], base[1]}

	cache := NewResultCache()
	results, err := Run(context.Background(), jobs, Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Hits(); got != 2 {
		t.Errorf("Hits() = %d, want 2", got)
	}
	reused := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Reused == ReusedCache {
			reused++
		}
		if !reflect.DeepEqual(r.Stats, results[0].Stats) && i < 3 {
			t.Errorf("job %d: duplicate stats differ from the original", i)
		}
	}
	if reused != 2 {
		t.Errorf("%d results marked %q, want 2", reused, ReusedCache)
	}
	if results[3].Reused != "" {
		t.Errorf("distinct job 3 marked reused %q", results[3].Reused)
	}
}

// TestCacheDedupAcrossCampaigns: one cache shared by two Run calls serves the
// second campaign's duplicates without simulating — the cross-experiment
// sweep scenario where many figures share the baseline column.
func TestCacheDedupAcrossCampaigns(t *testing.T) {
	jobs := testJobs(2)
	cache := NewResultCache()
	first, err := Run(context.Background(), jobs, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 0 {
		t.Fatalf("first campaign hit the cache %d times", cache.Hits())
	}
	second, err := Run(context.Background(), jobs, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != len(jobs) {
		t.Errorf("Hits() = %d, want %d", cache.Hits(), len(jobs))
	}
	for i := range jobs {
		if second[i].Reused != ReusedCache {
			t.Errorf("job %d: Reused = %q, want %q", i, second[i].Reused, ReusedCache)
		}
		if !reflect.DeepEqual(first[i].Stats, second[i].Stats) {
			t.Errorf("job %d: cached stats differ from the original run", i)
		}
	}
}

// TestCacheAbortReelects: a failed leader must not poison its key — followers
// run live, and a later job with the same key becomes a fresh leader and
// caches successfully.
func TestCacheAbortReelects(t *testing.T) {
	cache := NewResultCache()

	broken := testJobs(1)
	broken[0].Machine.STLBEntries = 7 // invalid geometry: leader fails
	if _, err := Run(context.Background(), broken, Options{Workers: 1, Cache: cache}); err == nil {
		t.Fatal("broken job did not fail")
	}
	if cache.Hits() != 0 {
		t.Fatalf("failed leader produced %d hits", cache.Hits())
	}

	// Same key, now valid? No — the broken machine IS the key. Run the valid
	// job twice instead: first run re-elects nothing (different key), but a
	// second identical pair proves the aborted entry did not linger: the
	// valid key caches normally and the broken key stays vacant.
	good := testJobs(1)
	jobs := []Job{good[0], good[0]}
	results, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Reused != ReusedCache {
		t.Errorf("second good job Reused = %q, want %q", results[1].Reused, ReusedCache)
	}

	// The broken key was vacated: acquiring it again elects a new leader
	// rather than returning a follower stuck on a dead entry.
	key, ok := broken[0].Key()
	if !ok {
		t.Fatal("broken job should still be keyed (it fails at Build, not at Key)")
	}
	if _, leader := cache.acquire(key); !leader {
		t.Error("aborted key did not re-elect a leader")
	}
}

// TestCacheSingleFlight: concurrent duplicates of one key simulate exactly
// once — followers block on the leader instead of racing it.
func TestCacheSingleFlight(t *testing.T) {
	job := testJobs(1)[0]
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = job
	}
	cache := NewResultCache()
	results, err := Run(context.Background(), jobs, Options{Workers: 6, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	simulated := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Reused == "" {
			simulated++
		}
		if !reflect.DeepEqual(r.Stats, results[0].Stats) {
			t.Errorf("job %d: stats differ across duplicates", i)
		}
	}
	if simulated != 1 {
		t.Errorf("%d jobs simulated, want exactly 1", simulated)
	}
	if cache.Hits() != len(jobs)-1 {
		t.Errorf("Hits() = %d, want %d", cache.Hits(), len(jobs)-1)
	}
}

// TestCacheUnkeyedBypass: jobs without a data identity never touch the cache.
func TestCacheUnkeyedBypass(t *testing.T) {
	job := testJobs(1)[0]
	job.Instrument = func(*sim.Config) {}
	jobs := []Job{job, job}
	cache := NewResultCache()
	results, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 0 {
		t.Errorf("unkeyed jobs produced %d cache hits", cache.Hits())
	}
	for i, r := range results {
		if r.Reused != "" {
			t.Errorf("unkeyed job %d marked reused %q", i, r.Reused)
		}
	}
}
