// Package mdcache is a versioned, singleflight-coalescing cache for federation
// metadata. WebFINDIT's co-databases exist so that discovery metadata
// (coalition topology, member descriptors, service links) is cheap to
// consult; this cache keeps the answers at the querying node so repeated
// identical metadata lookups stop costing IIOP round trips.
//
// One freshness rule covers every entry: it is stamped with its source's
// version, and a hit is served only while the source's version still equals
// the stamp. The caller supplies the version read (Request.Version), which
// must cost no round trip — for the node's own co-database an atomic load, for
// a peer the gossip store's entry — so every hit is verified. The stamp is read
// before the fetch: a mutation that lands mid-fetch can only make it older
// than the answer, and the next read then refetches. A lookup whose version
// cannot be read is fetched and answered but not cached. Negative results
// (lookup errors) are not versioned; they live for NegTTL, so a missing
// source does not hammer the federation but recovers quickly once advertised.
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
	// Miss means the value was fetched from the authority.
	Miss Outcome = iota
	// Hit means a cached value whose stamp matches the source's version was
	// served.
	Hit
	// NegHit means a cached negative result (error) was served.
	NegHit
	// Coalesced means the caller waited on another caller's in-flight fetch.
	Coalesced
)

var outcomeNames = [...]string{"miss", "hit", "neghit", "coalesced"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Served reports whether the outcome delivered a cached value without a fetch
// (Hit or NegHit).
func (o Outcome) Served() bool { return o == Hit || o == NegHit }

// Fetcher produces the authoritative value for a key.
type Fetcher func(ctx context.Context) (any, error)

// Versioner reads the current version of the source a key's answers come
// from. It must not cost a round trip on the hit path; !ok means the version
// is unknown, and the answer is then not cached.
type Versioner func(ctx context.Context) (ver uint64, ok bool)

// Request describes one cached lookup.
type Request struct {
	// Fetch produces the value on a miss. Required.
	Fetch Fetcher
	// Version reads the source's version. nil means the answer never changes
	// on its own: it stays until invalidated or evicted.
	Version Versioner
}

// The cache's bounds.
const (
	// NegTTL bounds negative entries (errors).
	NegTTL = 250 * time.Millisecond
	// MaxEntries bounds the cache size (LRU eviction).
	MaxEntries = 4096
)

// Options configures a Cache.
type Options struct {
	// TTL is unused: positive entries live until their source's version
	// moves. The field stays because the frozen benchmark (bench/) sets it.
	TTL time.Duration
	// Clock overrides time.Now for negative entries' expiry; simulations pin
	// it to their virtual clock.
	Clock func() time.Time
}

// Stats holds the cache's atomic counters (orb.Stats-style; surfaced at
// /debug/metrics through Snapshot).
type Stats struct {
	Hits          atomic.Int64 // version-verified entries served
	Misses        atomic.Int64 // fetches from the authority
	NegHits       atomic.Int64 // cached errors served
	Coalesced     atomic.Int64 // callers that waited on another's fetch
	Invalidations atomic.Int64 // entries dropped by InvalidateAll
	Evictions     atomic.Int64 // entries dropped by the LRU bound
}

// StatsSnapshot is a point-in-time JSON-friendly view of Stats.
type StatsSnapshot struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	NegHits   int64 `json:"neg_hits"`
	Coalesced int64 `json:"coalesced"`
	// StaleServed is always 0: the cache never serves an answer its source's
	// version has moved past. The field stays because the frozen benchmark
	// (bench/) reads it.
	StaleServed   int64 `json:"stale_served"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
}

type entry struct {
	key     string
	val     any
	err     error     // non-nil = negative entry
	ver     uint64    // the source's version read before the fetch
	expires time.Time // negative entries only
	elem    *list.Element
}

// flight is one in-progress fetch other callers can wait on.
type flight struct {
	done chan struct{}
	ver  uint64 // the stamp the fetch will install under
	val  any
	err  error
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

// New creates a cache; a nil Clock selects time.Now.
func New(opts Options) *Cache {
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
		Invalidations: c.Stats.Invalidations.Load(),
		Evictions:     c.Stats.Evictions.Load(),
	}
}

// Peek returns the cached positive value for key when it is stamped with
// version ver, touching the LRU and counting a hit. It never coalesces or
// fetches: it is the fast path for hot loops that peel off hits before paying
// for the concurrency scaffolding a full Get (with its fetch fallback) sits
// behind. Negative, outdated and absent entries report !ok.
func (c *Cache) Peek(key string, ver uint64) (any, bool) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.err != nil || e.ver != ver {
		c.mu.Unlock()
		return nil, false
	}
	c.touch(e)
	val := e.val
	c.mu.Unlock()
	c.Stats.Hits.Add(1)
	return val, true
}

// Get returns the cached value for key, fetching it when no entry carries the
// source's current version. The error is the fetched value's error: a
// negative hit replays the cached error.
func (c *Cache) Get(ctx context.Context, key string, req Request) (any, Outcome, error) {
	var ver uint64
	if req.Version != nil {
		v, ok := req.Version(ctx)
		if !ok {
			// No version to stamp an entry with: answer without caching.
			c.Stats.Misses.Add(1)
			val, err := req.Fetch(ctx)
			return val, Miss, err
		}
		ver = v
	}
	now := c.opts.Clock()

	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		if e.err != nil {
			if now.Before(e.expires) {
				c.touch(e)
				c.mu.Unlock()
				c.Stats.NegHits.Add(1)
				return nil, NegHit, e.err
			}
		} else if e.ver == ver {
			c.touch(e)
			val := e.val
			c.mu.Unlock()
			c.Stats.Hits.Add(1)
			return val, Hit, nil
		}
	}

	// Fetch path, with singleflight coalescing. A flight started under an
	// older version may return an older answer, so only a flight for the
	// version just read is joined; otherwise this caller leads a new one.
	if f, ok := c.flights[key]; ok && f.ver == ver {
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
		c.Stats.Coalesced.Add(1)
		return f.val, Coalesced, f.err
	}
	f := &flight{done: make(chan struct{}), ver: ver}
	c.flights[key] = f
	c.mu.Unlock()

	f.val, f.err = req.Fetch(ctx)
	c.Stats.Misses.Add(1)

	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if f.err != nil {
		c.install(&entry{key: key, err: f.err, expires: c.opts.Clock().Add(NegTTL)})
	} else {
		c.install(&entry{key: key, val: f.val, ver: ver})
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, Miss, f.err
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
