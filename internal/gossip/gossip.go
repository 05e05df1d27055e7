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
// The same Store doubles as the failure detector behind sub-coalition
// representative election: peers whose exchanges keep failing are marked
// dead after SuspectAfter consecutive failures, and Representative skips
// them. Because the agent walks its peers in shuffled-ring order (every
// known peer is contacted exactly once per cycle), a partitioned peer is
// detected within SuspectAfter full cycles — a deterministic bound the
// simulation tests assert.
package gossip

import (
	"sort"
	"sync"
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

// Store is one node's replica of the federation metadata map plus the
// liveness view gossip builds as a side effect. All methods are safe for
// concurrent use: servant-side pull/push handlers run on ORB dispatch
// goroutines while the local agent ticks.
type Store struct {
	mu      sync.Mutex
	self    string
	entries map[string]Entry
	fails   map[string]int // consecutive exchange failures; a success resets
	dead    map[string]bool
}

// NewStore creates a store owned by node self.
func NewStore(self string) *Store {
	return &Store{
		self:    self,
		entries: make(map[string]Entry),
		fails:   make(map[string]int),
		dead:    make(map[string]bool),
	}
}

// SetSelf installs the local node's own entry. It is the one write that
// bypasses the merge-by-version rule's remote-skip: the local co-database is
// authoritative for itself, and remote claims about it are always ignored.
func (s *Store) SetSelf(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[e.Node]; !ok || e.Version >= old.Version {
		s.entries[e.Node] = e
	}
}

// Apply merges remote entries by version: an entry lands only when it is
// strictly newer than what the store holds (or fills a gap), and entries
// claiming to describe the local node are dropped — the local co-database is
// the only authority for itself. It returns the entries actually applied,
// in input order, so callers can invalidate derived caches.
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
		s.entries[e.Node] = e
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

// ReportFailure records a failed exchange with a peer; after SuspectAfter
// consecutive failures the peer is considered dead. It reports whether this
// call crossed the threshold.
func (s *Store) ReportFailure(node string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails[node]++
	if s.fails[node] >= SuspectAfter && !s.dead[node] {
		s.dead[node] = true
		return true
	}
	return false
}

// ReportSuccess resets a peer's failure count and revives it.
func (s *Store) ReportSuccess(node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.fails, node)
	delete(s.dead, node)
}

// Alive reports whether a peer is believed reachable. Unknown peers get the
// benefit of the doubt: liveness is only ever evidence of failure, never a
// gate on first contact.
func (s *Store) Alive(node string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.dead[node]
}

// DeadCount reports how many peers are currently considered dead.
func (s *Store) DeadCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dead)
}

// Shard splits a coalition's member list into sub-coalitions of at most
// size members, preserving order: members[0:size], members[size:2*size], …
// Member lists arrive sorted from the co-database, so sharding is
// deterministic across every node that holds the same list. size <= 0
// returns a single shard.
func Shard(members []string, size int) [][]string {
	if size <= 0 || len(members) <= size {
		if len(members) == 0 {
			return nil
		}
		return [][]string{members}
	}
	var out [][]string
	for start := 0; start < len(members); start += size {
		end := start + size
		if end > len(members) {
			end = len(members)
		}
		out = append(out, members[start:end])
	}
	return out
}

// Representative elects a shard's representative: the first member the
// liveness view still believes reachable. When every member is suspected the
// first member is returned anyway (the caller's probe will fail and record
// the error, which is the honest outcome). The returned index is the
// member's position within the shard.
func (s *Store) Representative(shard []string) (string, int) {
	for i, m := range shard {
		if s.Alive(m) {
			return m, i
		}
	}
	if len(shard) == 0 {
		return "", -1
	}
	return shard[0], 0
}
