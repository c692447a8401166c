package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"morrigan/internal/sim"
)

// mapStore is an in-memory ResultStore. putErr, when set, fails every Put
// without storing anything — a store whose disk stopped taking writes.
type mapStore struct {
	mu     sync.Mutex
	m      map[string]Stored
	puts   int
	putErr error
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string]Stored)} }

func (s *mapStore) Lookup(key string) (Stored, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[key]
	return st, ok
}

func (s *mapStore) Put(key string, res Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.putErr != nil {
		return s.putErr
	}
	s.m[key] = Stored{Stats: res.Stats, Sampling: res.Sampling}
	return nil
}

// TestStorePutErrorFailsJob is the store-failure contract: a result the
// caller asked to persist but the store could not take fails its job — with
// the store's error on Result.Err and as Run's error — rather than reporting
// a success that a rerun on the same store would not find.
func TestStorePutErrorFailsJob(t *testing.T) {
	diskFull := errors.New("no space left on device")
	store := newMapStore()
	store.putErr = diskFull
	jobs := testJobs(2)
	results, err := Run(context.Background(), jobs, Options{Workers: 1, Store: store})
	if !errors.Is(err, diskFull) {
		t.Fatalf("Run error = %v, want the store's put error", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, diskFull) || !strings.Contains(r.Err.Error(), jobs[i].Name()) {
			t.Errorf("job %d: Err = %v, want the put error naming the job", i, r.Err)
		}
		if r.Reused != "" {
			t.Errorf("job %d: Reused = %q on a failed put", i, r.Reused)
		}
	}
	if store.puts != len(jobs) || len(store.m) != 0 {
		t.Errorf("puts = %d, stored = %d; want %d attempted, none stored", store.puts, len(store.m), len(jobs))
	}
}

// TestCachePublishFromStore: a store hit is published into the cache, so a
// later campaign sharing the cache is served in-process (ReusedCache)
// without a store attached; a key already present in the cache is left
// alone by later publishes.
func TestCachePublishFromStore(t *testing.T) {
	jobs := testJobs(1)
	key, _ := jobs[0].Key()
	store := newMapStore()
	store.m[key] = Stored{Stats: sim.Stats{Instructions: 42}}
	cache := NewResultCache()

	first, err := Run(context.Background(), jobs, Options{Workers: 1, Store: store, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Reused != ReusedStore || first[0].Stats.Instructions != 42 {
		t.Fatalf("first run: Reused = %q, Instructions = %d; want a store hit", first[0].Reused, first[0].Stats.Instructions)
	}

	cache.publish(key, Stored{Stats: sim.Stats{Instructions: 999}}) // present: left alone
	second, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Reused != ReusedCache || second[0].Stats.Instructions != 42 {
		t.Errorf("second run: Reused = %q, Instructions = %d; want the published store hit from the cache",
			second[0].Reused, second[0].Stats.Instructions)
	}
}
