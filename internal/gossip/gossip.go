// Package gossip is the anti-entropy membership layer that lets a WebFINDIT
// federation scale past the point where every node can fan out to every
// coalition member. Each node keeps a Store of per-node metadata entries —
// one Entry per co-database, stamped with that co-database's monotonic
// Version() — and periodically exchanges version-vector digests with a few
// peers, pulling only the entries the peer holds at a newer version and
// pushing back the ones it is missing (push-pull anti-entropy). A single
// metadata mutation therefore reaches all N nodes in O(log N) rounds with
// per-round traffic bounded by fanout, instead of requiring an O(N²)
// all-pairs probe storm.
//
// The Store is also where the query layer reads a peer's current version:
// every cached peer answer is verified against Store.SourceVersion. Because
// the agent walks its peers in shuffled-ring order (every known peer is
// contacted exactly once per cycle), a reader holds any peer's new version
// within two cycles — the staleness bound the simulation tests assert.
package gossip

import (
	"sort"
	"sync"

	"repro/internal/orb"
)

// Entry is one node's co-database metadata snapshot: the unit gossip deltas
// move. Version is the owning co-database's monotonic schema version at
// snapshot time; an entry only ever replaces an older-versioned one, so
// applying any delta — including a corrupted or replayed one — can never
// move a node's knowledge backwards.
type Entry struct {
	// Node is the owning database's federation-unique name.
	Node string
	// Version is CoDatabase.Version() when the snapshot was taken. Seed
	// entries (bootstrap knowledge from the local co-database's member
	// lists) carry version 0: they fill gaps but never displace gossip.
	Version uint64
	// CoDBRef is the stringified IOR of the node's co-database servant —
	// how a gossip exchange (and discovery) reaches the node.
	CoDBRef string
	// Coalitions lists the coalitions the node belongs to, sorted.
	Coalitions []string
}

// Digest is a version vector: the highest version at which each node's
// entry is held. Nodes absent from the digest are implicitly at version 0,
// so a peer answering a digest sends everything the digester lacks.
type Digest map[string]uint64

// Store is one node's replica of the federation metadata map. All methods
// are safe for concurrent use: servant-side pull/push handlers run on ORB
// dispatch goroutines while the local agent ticks.
type Store struct {
	mu      sync.Mutex
	self    string
	entries map[string]Entry
	sources map[string]string // Source(CoDBRef) -> node
}

// NewStore creates a store owned by node self.
func NewStore(self string) *Store {
	return &Store{
		self:    self,
		entries: make(map[string]Entry),
		sources: make(map[string]string),
	}
}

// Source names the co-database a stringified reference reaches by its
// endpoint and object key, "<host:port>/<object key>" — the identity the
// metadata cache keys a source's answers by. It is "" when ref does not parse.
func Source(ref string) string {
	ior, err := orb.Destringify(ref)
	if err != nil {
		return ""
	}
	return ior.Addr() + "/" + ior.Key()
}

// put stores an entry and indexes its source. Caller holds s.mu.
func (s *Store) put(e Entry) {
	if old, ok := s.entries[e.Node]; !ok || old.CoDBRef != e.CoDBRef {
		if src := Source(e.CoDBRef); src != "" {
			s.sources[src] = e.Node
		}
	}
	s.entries[e.Node] = e
}

// SetSelf installs the local node's own entry. It is the one write that
// bypasses the merge-by-version rule's remote-skip: the local co-database is
// authoritative for itself, and remote claims about it are always ignored.
func (s *Store) SetSelf(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[e.Node]; !ok || e.Version >= old.Version {
		s.put(e)
	}
}

// Apply merges remote entries by version: an entry lands only when it is
// strictly newer than what the store holds (or fills a gap), and entries
// claiming to describe the local node are dropped — the local co-database is
// the only authority for itself. It returns the entries actually applied,
// in input order.
func (s *Store) Apply(entries []Entry) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var applied []Entry
	for _, e := range entries {
		if e.Node == "" || e.Node == s.self {
			continue
		}
		old, ok := s.entries[e.Node]
		if ok && e.Version <= old.Version {
			continue
		}
		s.put(e)
		applied = append(applied, e)
	}
	return applied
}

// Digest snapshots the store's version vector, the local entry included.
func (s *Store) Digest() Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := make(Digest, len(s.entries))
	for n, e := range s.entries {
		d[n] = e.Version
	}
	return d
}

// DeltaSince returns the entries held at a strictly newer version than the
// digest records (absent digest nodes count as version 0), sorted by node
// name for a deterministic wire image.
func (s *Store) DeltaSince(d Digest) []Entry {
	s.mu.Lock()
	var out []Entry
	for n, e := range s.entries {
		if e.Version > d[n] {
			out = append(out, e)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Get returns a node's entry.
func (s *Store) Get(node string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[node]
	return e, ok
}

// SourceVersion returns the version of the co-database named by source (see
// Source) that the store holds from the co-database itself, directly or
// through gossip. A version-0 seed is not that: it reports !ok, like a source
// the store has never heard of.
func (s *Store) SourceVersion(source string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[s.sources[source]]
	return e.Version, ok && e.Version > 0
}

// Len reports how many nodes the store knows (itself included once SetSelf
// has run).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Nodes lists every known node name, sorted.
func (s *Store) Nodes() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.entries))
	for n := range s.entries {
		out = append(out, n)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Peers lists every known node except self that carries a co-database
// reference — the gossip-able population — sorted by name.
func (s *Store) Peers() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		if e.Node != s.self && e.CoDBRef != "" {
			out = append(out, e)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
