package relational

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// defaultPlanCacheCap bounds the number of cached statement lists per
// database. Parameterised workloads that format literals into the text (the
// common case in this codebase) churn the tail of the LRU without evicting
// hot templates.
const defaultPlanCacheCap = 256

// planCache memoises parsed statement lists keyed by exact query text. Each
// entry carries the schema version it was parsed under; a lookup against a
// newer version drops the entry, so every DDL statement invalidates all
// earlier plans (the version check is the revalidation, the bump is the
// broadcast). Cached statements are shared across goroutines: execution
// never mutates a parsed AST (subquery rewriting copies), which is what
// makes the cache sound.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	byKey map[string]*list.Element // query text -> entry

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

type planCacheEntry struct {
	key     string
	stmts   []Statement
	version uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// get returns the statements cached for key when they were parsed at schema
// version v. A version mismatch counts as both an invalidation and a miss.
func (c *planCache) get(key string, v uint64) ([]Statement, bool) {
	c.mu.Lock()
	el, ok := c.byKey[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*planCacheEntry)
	if e.version != v {
		c.ll.Remove(el)
		delete(c.byKey, key)
		c.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	stmts := e.stmts // put rewrites a live entry's fields under the lock
	c.mu.Unlock()
	c.hits.Add(1)
	return stmts, true
}

// put stores statements parsed at schema version v, evicting the least
// recently used entries beyond capacity.
func (c *planCache) put(key string, stmts []Statement, v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*planCacheEntry)
		e.stmts, e.version = stmts, v
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&planCacheEntry{key: key, stmts: stmts, version: v})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.byKey, el.Value.(*planCacheEntry).key)
		c.evictions.Add(1)
	}
}

// PlanCacheStats is a point-in-time snapshot of plan-cache effectiveness,
// published per node at /debug/metrics.
type PlanCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Entries       int    `json:"entries"`
	SchemaVersion uint64 `json:"schema_version"`
}

// PlanCacheStats snapshots the database's plan cache counters.
func (db *Database) PlanCacheStats() PlanCacheStats {
	c := db.plans
	c.mu.Lock()
	entries := c.ll.Len()
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       entries,
		SchemaVersion: db.schemaVer.Load(),
	}
}
