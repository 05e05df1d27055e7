package query

import (
	"context"
	"strings"

	"repro/internal/codb"
	"repro/internal/mdcache"
)

// This file is the query processor's view of the federation metadata cache
// (Config.Cache). Every helper is nil-safe — with no cache configured the
// fetch runs directly — and returns the mdcache.Outcome so call sites can
// annotate spans and MemberStatus entries with cache=hit|miss|….
//
// Two freshness modes apply, chosen per co-database:
//
//   - The node's own co-database (in-process) verifies on every hit against
//     CoDatabase.Version(), an atomic load: local mutations through any path
//     are visible immediately, at no wire cost.
//   - Peer co-databases are served blind within the TTL — that zero-RTT hit
//     is the point of the cache — and revalidate on expiry with one remote
//     version() call instead of refetching member lists.
//
// Cached values are shared across sessions and goroutines: callers must
// treat returned slices and descriptors as read-only.

// probeResult is the cached unit of a stage-3 discovery probe: both
// find_coalitions and find_links answers from one peer, held as a single
// entry so N concurrent same-topic resolves coalesce into exactly one
// two-call fan-out per peer.
type probeResult struct {
	Coals []codb.Match
	Links []codb.Match
}

// srcKey identifies a co-database for cache keying by its object address.
// Clients are canonical (Config.Local plus the codbByRef memo), so the
// rendered address is computed once per client and remembered.
func (p *Processor) srcKey(c *codb.Client) string {
	if k, ok := p.srcKeys.Load(c); ok {
		return k.(string)
	}
	ior := c.Ref().IOR()
	k := ior.Addr() + "/" + ior.Key()
	p.srcKeys.Store(c, k)
	return k
}

// versioner returns the schema-version reader for client c and whether hits
// should be verified against it every time (true only for the in-process
// co-database, where the read is free and always current).
func (p *Processor) versioner(c *codb.Client) (mdcache.Versioner, bool) {
	if cd := p.cfg.LocalCoDB; cd != nil && c == p.cfg.Local {
		return func(context.Context) (uint64, error) { return cd.Version(), nil }, true
	}
	return func(ctx context.Context) (uint64, error) { return c.Version(ctx) }, false
}

// cached answers one metadata question about co-database c through the
// cache, as a T: fetch runs on a miss (or directly, with no cache configured)
// and its result is shared by every later asker until the entry expires or
// c's version moves. A negative entry comes back as T's zero value.
func cached[T any](ctx context.Context, p *Processor, c *codb.Client, key string, fetch mdcache.Fetcher) (T, mdcache.Outcome, error) {
	ver, verify := p.versioner(c)
	v, out, err := p.cfg.Cache.Get(ctx, key, mdcache.Request{Fetch: fetch, Version: ver, VerifyHit: verify})
	if err != nil || v == nil {
		var zero T
		return zero, out, err
	}
	return v.(T), out, nil
}

// probeKey is the cache key of one peer's stage-3 discovery probe.
func (p *Processor) probeKey(c *codb.Client, topic string) string {
	return "probe|" + p.srcKey(c) + "|" + strings.ToLower(topic)
}

// peekProbe returns a peer's probe result if a fresh positive entry is
// cached, without verifying, coalescing or fetching. resolveTopic uses it to
// answer repeat-topic discovery before paying for the per-peer fan-out
// scaffolding (goroutine, span, call-stats) that a cold probe needs. Peer
// probes are always TTL-mode entries (the in-process co-database is never
// probed), so the blind serve matches what a full Get would do on a hit.
func (p *Processor) peekProbe(c *codb.Client, topic string) (probeResult, bool) {
	v, ok := p.cfg.Cache.Peek(p.probeKey(c, topic))
	if !ok {
		return probeResult{}, false
	}
	return v.(probeResult), true
}

// cachedProbe runs (or replays) one peer's stage-3 discovery probe.
func (p *Processor) cachedProbe(ctx context.Context, c *codb.Client, topic string) (probeResult, mdcache.Outcome, error) {
	return cached[probeResult](ctx, p, c, p.probeKey(c, topic), func(ctx context.Context) (any, error) {
		coals, err := c.FindCoalitions(ctx, topic)
		if err != nil {
			return nil, err
		}
		links, err := c.FindLinks(ctx, topic)
		if err != nil {
			return nil, err
		}
		return probeResult{Coals: coals, Links: links}, nil
	})
}

// cachedFindCoalitions scores a co-database's coalitions against a topic.
func (p *Processor) cachedFindCoalitions(ctx context.Context, c *codb.Client, topic string) ([]codb.Match, mdcache.Outcome, error) {
	return cached[[]codb.Match](ctx, p, c, "findc|"+p.srcKey(c)+"|"+strings.ToLower(topic),
		func(ctx context.Context) (any, error) { return c.FindCoalitions(ctx, topic) })
}

// cachedFindLinks scores a co-database's service links against a topic.
func (p *Processor) cachedFindLinks(ctx context.Context, c *codb.Client, topic string) ([]codb.Match, mdcache.Outcome, error) {
	return cached[[]codb.Match](ctx, p, c, "findl|"+p.srcKey(c)+"|"+strings.ToLower(topic),
		func(ctx context.Context) (any, error) { return c.FindLinks(ctx, topic) })
}

// cachedCoalitions lists a co-database's coalition classes.
func (p *Processor) cachedCoalitions(ctx context.Context, c *codb.Client) ([]string, mdcache.Outcome, error) {
	return cached[[]string](ctx, p, c, "coalitions|"+p.srcKey(c),
		func(ctx context.Context) (any, error) { return c.Coalitions(ctx) })
}

// cachedMemberOf lists the coalitions a co-database's owner belongs to.
func (p *Processor) cachedMemberOf(ctx context.Context, c *codb.Client) ([]string, mdcache.Outcome, error) {
	return cached[[]string](ctx, p, c, "memberof|"+p.srcKey(c),
		func(ctx context.Context) (any, error) { return c.MemberOf(ctx) })
}

// cachedInstances lists a coalition's member descriptors.
func (p *Processor) cachedInstances(ctx context.Context, c *codb.Client, coalition string) ([]*codb.SourceDescriptor, mdcache.Outcome, error) {
	return cached[[]*codb.SourceDescriptor](ctx, p, c, "instances|"+p.srcKey(c)+"|"+strings.ToLower(coalition),
		func(ctx context.Context) (any, error) { return c.Instances(ctx, coalition) })
}

// cachedLinks lists a co-database's service links.
func (p *Processor) cachedLinks(ctx context.Context, c *codb.Client) ([]*codb.ServiceLink, mdcache.Outcome, error) {
	return cached[[]*codb.ServiceLink](ctx, p, c, "links|"+p.srcKey(c),
		func(ctx context.Context) (any, error) { return c.Links(ctx) })
}

// cachedAccessInfo fetches a source descriptor by database name.
func (p *Processor) cachedAccessInfo(ctx context.Context, c *codb.Client, source string) (*codb.SourceDescriptor, mdcache.Outcome, error) {
	return cached[*codb.SourceDescriptor](ctx, p, c, "access|"+p.srcKey(c)+"|"+strings.ToLower(source),
		func(ctx context.Context) (any, error) { return c.AccessInfo(ctx, source) })
}

// peerTarget is one stage-3 probe target: a coalition peer's member name,
// co-database reference and canonical client.
type peerTarget struct {
	Name string
	Ref  string
	Peer *codb.Client
}

// peerGroup is one coalition's contribution to the stage-3 probe-target list:
// the peers that entered the list through it, in member order. Hierarchical
// routing shards groups; flat routing ignores the grouping and walks the
// concatenation, so both modes see the same targets in the same order.
type peerGroup struct {
	Coalition string
	Members   []peerTarget
}

// cachedPeerGroups assembles (or replays) the deduplicated probe-target list
// for stage-3 discovery, grouped by the coalition that contributed each peer:
// every distinct peer co-database reachable through the coalitions the local
// owner belongs to, in deterministic member order (a peer reachable through
// several coalitions counts for the first one enumerated, exactly where the
// pre-grouping flat list held it). The list is itself a cache entry — derived
// purely from local metadata, it shares the local co-database's
// version-verified freshness — so a repeat discovery skips the member-of and
// per-coalition instance lookups entirely.
func (p *Processor) cachedPeerGroups(ctx context.Context, local *codb.Client) ([]peerGroup, mdcache.Outcome, error) {
	return cached[[]peerGroup](ctx, p, local, "peers|"+p.srcKey(local), func(ctx context.Context) (any, error) {
		memberOf, _, err := p.cachedMemberOf(ctx, local)
		if err != nil {
			return nil, err
		}
		var groups []peerGroup
		seen := map[string]bool{}
		for _, coalition := range memberOf {
			members, _, err := p.cachedInstances(ctx, local, coalition)
			if err != nil {
				continue
			}
			var g []peerTarget
			for _, m := range members {
				if strings.EqualFold(m.Name, p.cfg.Home) || m.CoDBRef == "" || seen[m.CoDBRef] {
					continue
				}
				peer, err := p.codbByRef(m.CoDBRef)
				if err != nil {
					continue
				}
				seen[m.CoDBRef] = true
				g = append(g, peerTarget{Name: m.Name, Ref: m.CoDBRef, Peer: peer})
			}
			if len(g) > 0 {
				groups = append(groups, peerGroup{Coalition: coalition, Members: g})
			}
		}
		return groups, nil
	})
}

// invalidateCache eagerly empties the metadata cache after a statement that
// mutates the information space (Join/Leave, Create Coalition/Link), so the
// change is observable immediately instead of after TTL/version convergence.
func (p *Processor) invalidateCache() { p.cfg.Cache.InvalidateAll() }
