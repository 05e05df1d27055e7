// Package mdcache is a versioned, TTL-bounded, singleflight-coalescing cache
// for federation metadata. WebFINDIT's co-databases exist so that discovery
// metadata (coalition topology, member descriptors, service links) is cheap
// to consult; this cache keeps the answers at the querying node so repeated
// identical metadata lookups stop costing IIOP round trips.
//
// Three freshness mechanisms compose:
//
//   - Positive entries live for a TTL; negative results (lookup errors) live
//     for a shorter NegTTL so a missing source does not hammer the federation
//     but recovers quickly once advertised.
//   - Entries are stamped with the owning co-database's monotonic schema
//     version (read *before* the fetch, so a concurrent mutation can only
//     make the stamp conservative). An expired entry revalidates against the
//     current version with one cheap version() call instead of refetching
//     the full payload; in-process co-databases can verify on every hit.
//   - When the authority is unreachable (peer down or partitioned away),
//     the last known value is served stale — the degraded answer the fault
//     layer flags in MemberStatus — rather than failing discovery outright.
//
// Concurrent misses for one key coalesce through a hand-rolled singleflight:
// N sessions resolving the same topic produce one probe fan-out, not N.
package mdcache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies how Get satisfied a lookup; the query layer annotates
// spans and MemberStatus entries with it.
type Outcome uint8

// Get outcomes.
const (
	// Miss means the value was fetched from the authority and cached.
	Miss Outcome = iota
	// Hit means a fresh (or version-verified) cached value was served.
	Hit
	// NegHit means a cached negative result (error) was served.
	NegHit
	// Stale means the authority was unreachable and an expired or unverified
	// cached value was served as the degraded answer.
	Stale
	// Coalesced means the caller waited on another caller's in-flight fetch.
	Coalesced
)

var outcomeNames = [...]string{"miss", "hit", "neghit", "stale", "coalesced"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Served reports whether the outcome delivered a usable cached value without
// a fetch (Hit, NegHit or Stale).
func (o Outcome) Served() bool { return o == Hit || o == NegHit || o == Stale }

// Fetcher produces the authoritative value for a key.
type Fetcher func(ctx context.Context) (any, error)

// Versioner reads the authority's current schema version (codb version()).
type Versioner func(ctx context.Context) (uint64, error)

// Request describes one cached lookup.
type Request struct {
	// Fetch produces the value on a miss. Required.
	Fetch Fetcher
	// Version, when set, stamps fetched entries and lets expired entries
	// revalidate with one cheap call instead of a refetch.
	Version Versioner
	// VerifyHit revalidates every hit against Version, not just expired
	// ones. Use for in-process authorities where the version read is an
	// atomic load — mutations then become visible immediately.
	VerifyHit bool
}

// The cache's bounds. Only the positive TTL can be set (Options.TTL), and only
// the benchmark's own probe cache sets it.
const (
	// DefaultTTL bounds how long a positive entry is served without
	// revalidation.
	DefaultTTL = 2 * time.Second
	// NegTTL bounds negative entries (errors).
	NegTTL = 250 * time.Millisecond
	// MaxEntries bounds the cache size (LRU eviction).
	MaxEntries = 4096
)

// Options configures a Cache.
type Options struct {
	// TTL bounds how long a positive entry is served without revalidation.
	// 0 selects DefaultTTL.
	TTL time.Duration
	// Clock overrides time.Now; simulations pin it to their virtual clock.
	Clock func() time.Time
}

// Stats holds the cache's atomic counters (orb.Stats-style; surfaced at
// /debug/metrics through Snapshot).
type Stats struct {
	Hits          atomic.Int64 // fresh or version-verified entries served
	Misses        atomic.Int64 // fetches from the authority
	NegHits       atomic.Int64 // cached errors served
	Coalesced     atomic.Int64 // callers that waited on another's fetch
	StaleServed   atomic.Int64 // values served while the authority was unreachable
	Revalidations atomic.Int64 // expired entries refreshed by version match alone
	Invalidations atomic.Int64 // entries dropped by Invalidate*
	Evictions     atomic.Int64 // entries dropped by the LRU bound
}

// StatsSnapshot is a point-in-time JSON-friendly view of Stats.
type StatsSnapshot struct {
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	NegHits       int64 `json:"neg_hits"`
	Coalesced     int64 `json:"coalesced"`
	StaleServed   int64 `json:"stale_served"`
	Revalidations int64 `json:"revalidations"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
}

type entry struct {
	key     string
	val     any
	err     error // non-nil = negative entry
	ver     uint64
	hasVer  bool
	expires time.Time
	elem    *list.Element
}

// flight is one in-progress fetch other callers can wait on.
type flight struct {
	done    chan struct{}
	val     any
	err     error
	outcome Outcome // leader's outcome (Miss or Stale); waiters report Coalesced
}

// Cache is a bounded, versioned metadata cache. The zero value is not ready;
// use New.
type Cache struct {
	opts  Options
	Stats Stats

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used
	flights map[string]*flight
}

// New creates a cache; zero Options fields select the defaults.
func New(opts Options) *Cache {
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Cache{
		opts:    opts,
		entries: make(map[string]*entry),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Snapshot returns the counters plus the current entry count.
func (c *Cache) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Entries:       c.Len(),
		Hits:          c.Stats.Hits.Load(),
		Misses:        c.Stats.Misses.Load(),
		NegHits:       c.Stats.NegHits.Load(),
		Coalesced:     c.Stats.Coalesced.Load(),
		StaleServed:   c.Stats.StaleServed.Load(),
		Revalidations: c.Stats.Revalidations.Load(),
		Invalidations: c.Stats.Invalidations.Load(),
		Evictions:     c.Stats.Evictions.Load(),
	}
}

// Peek returns the cached positive value for key when it is fresh, touching
// the LRU and counting a hit. It never verifies, coalesces or fetches: it is
// the zero-cost fast path for hot loops that peel off plain TTL hits before
// paying for the concurrency scaffolding a full Get (with its fetch
// fallback) sits behind. Negative, stale and absent entries report !ok.
func (c *Cache) Peek(key string) (any, bool) {
	now := c.opts.Clock()
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.err != nil || !now.Before(e.expires) {
		c.mu.Unlock()
		return nil, false
	}
	c.touch(e)
	val := e.val
	c.mu.Unlock()
	c.Stats.Hits.Add(1)
	return val, true
}

// Get returns the cached value for key, fetching (or revalidating) it as
// needed. The error is the fetched value's error: a negative hit replays the
// cached error, and a stale serve returns the old value with a nil error.
func (c *Cache) Get(ctx context.Context, key string, req Request) (any, Outcome, error) {
	now := c.opts.Clock()

	c.mu.Lock()
	e := c.entries[key]
	if e != nil {
		fresh := now.Before(e.expires)
		if e.err != nil { // negative entry
			if fresh {
				c.touch(e)
				c.mu.Unlock()
				c.Stats.NegHits.Add(1)
				return nil, NegHit, e.err
			}
			// Expired negative entries never revalidate; refetch below.
		} else if fresh && (!req.VerifyHit || req.Version == nil) {
			c.touch(e)
			val := e.val
			c.mu.Unlock()
			c.Stats.Hits.Add(1)
			return val, Hit, nil
		} else if req.Version != nil && e.hasVer {
			// Fresh-but-verify, or expired-with-version: one cheap version
			// call decides between serving and refetching.
			val, ver := e.val, e.ver
			c.mu.Unlock()
			cur, verr := req.Version(ctx)
			if verr == nil && cur == ver {
				c.extend(key, now, !fresh)
				c.Stats.Hits.Add(1)
				return val, Hit, nil
			}
			if verr != nil {
				// Authority unreachable: serve the last known value as the
				// degraded answer (stale-while-unavailable).
				c.Stats.StaleServed.Add(1)
				return val, Stale, nil
			}
			// Version moved: fall through to fetch.
			c.mu.Lock()
		} else {
			// Expired with no version support: refetch.
		}
	}

	// Fetch path, with singleflight coalescing.
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
		c.Stats.Coalesced.Add(1)
		return f.val, Coalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.fetch(ctx, key, req, f)

	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	return f.val, f.outcome, f.err
}

// fetch runs the authoritative fetch for a flight and installs the result.
func (c *Cache) fetch(ctx context.Context, key string, req Request, f *flight) {
	var ver uint64
	var hasVer bool
	if req.Version != nil {
		// Read the version before fetching: if a mutation lands mid-fetch the
		// entry keeps the older stamp and the next revalidation refetches.
		if v, err := req.Version(ctx); err == nil {
			ver, hasVer = v, true
		}
	}
	val, err := req.Fetch(ctx)
	now := c.opts.Clock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if old := c.entries[key]; old != nil && old.err == nil {
			// Keep and serve the last good value; the authority is unhealthy.
			c.touch(old)
			f.val, f.err, f.outcome = old.val, nil, Stale
			c.Stats.StaleServed.Add(1)
			return
		}
		c.install(&entry{key: key, err: err, expires: now.Add(NegTTL)})
		f.err, f.outcome = err, Miss
		c.Stats.Misses.Add(1)
		return
	}
	c.install(&entry{key: key, val: val, ver: ver, hasVer: hasVer, expires: now.Add(c.opts.TTL)})
	f.val, f.outcome = val, Miss
	c.Stats.Misses.Add(1)
}

// extend refreshes an entry's expiry after a successful version match.
// Caller does not hold c.mu.
func (c *Cache) extend(key string, now time.Time, revalidated bool) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil && e.err == nil {
		e.expires = now.Add(c.opts.TTL)
		c.touch(e)
	}
	c.mu.Unlock()
	if revalidated {
		c.Stats.Revalidations.Add(1)
	}
}

// install adds or replaces an entry and enforces the LRU bound. Caller holds
// c.mu.
func (c *Cache) install(e *entry) {
	if old := c.entries[e.key]; old != nil {
		c.lru.Remove(old.elem)
	}
	e.elem = c.lru.PushFront(e)
	c.entries[e.key] = e
	for len(c.entries) > MaxEntries {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, victim.key)
		c.Stats.Evictions.Add(1)
	}
}

// touch marks an entry most recently used. Caller holds c.mu.
func (c *Cache) touch(e *entry) { c.lru.MoveToFront(e.elem) }

// Invalidate drops one entry.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.lru.Remove(e.elem)
		delete(c.entries, key)
		c.Stats.Invalidations.Add(1)
	}
	c.mu.Unlock()
}

// InvalidatePrefix drops every entry whose key starts with prefix.
func (c *Cache) InvalidatePrefix(prefix string) {
	c.mu.Lock()
	for key, e := range c.entries {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			c.lru.Remove(e.elem)
			delete(c.entries, key)
			c.Stats.Invalidations.Add(1)
		}
	}
	c.mu.Unlock()
}

// InvalidateAll empties the cache (eager invalidation on Join/Leave and
// information-space maintenance).
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	n := len(c.entries)
	c.entries = make(map[string]*entry)
	c.lru.Init()
	c.Stats.Invalidations.Add(int64(n))
	c.mu.Unlock()
}
