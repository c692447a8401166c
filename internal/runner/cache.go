package runner

import (
	"sync"
)

// ResultCache is the in-process cross-experiment result cache: campaign jobs
// with equal canonical keys (Job.Key) simulate the identical (config,
// workload, scale) triple, so one ResultCache shared across every campaign
// of a sweep makes each distinct triple simulate exactly once. Duplicate
// jobs — the baseline column shared by many figures, or repeated baselines
// within one experiment — receive the first run's Stats and are marked
// Reused in their Result.
//
// The cache single-flights concurrent duplicates: the first job to claim a
// key becomes its leader and simulates; followers block until the leader
// finishes. A failed leader aborts the entry, so followers (and later jobs)
// run live instead of caching an error. Stats are safe to share — they are
// plain value snapshots.
type ResultCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    int
}

// cacheEntry is one key's slot; done is closed when the leader completes or
// aborts, with ok reporting whether the stored payload is valid.
type cacheEntry struct {
	done   chan struct{}
	stored Stored
	ok     bool
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{entries: make(map[string]*cacheEntry)}
}

// acquire claims key. The first caller becomes the leader (second return
// true) and must later call complete or abort; everyone else gets the
// existing entry to wait on.
func (c *ResultCache) acquire(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// complete publishes the leader's result and releases its followers.
func (c *ResultCache) complete(e *cacheEntry, st Stored) {
	e.stored = st
	e.ok = true
	close(e.done)
}

// abort removes the failed leader's entry so future acquires elect a new
// leader, then releases the current followers with ok=false — they run live.
func (c *ResultCache) abort(key string, e *cacheEntry) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
	close(e.done)
}

// publish inserts an already-completed result (a result-store hit) so
// subsequent jobs with the same key reuse it without touching the store
// again. A key that is already present is left alone.
func (c *ResultCache) publish(key string, st Stored) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &cacheEntry{stored: st, ok: true, done: make(chan struct{})}
	close(e.done)
	c.entries[key] = e
}

// hit counts one reuse, for campaign accounting.
func (c *ResultCache) hit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// Hits reports how many jobs were served from the cache so far.
func (c *ResultCache) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}
