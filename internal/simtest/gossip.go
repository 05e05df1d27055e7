package simtest

import (
	"context"
	"fmt"
	"time"

	"repro/internal/gossip"
)

// gossipRoundTick is how far the virtual clock moves per simulated gossip
// round, so detection and convergence bounds are phrased in virtual-clock
// rounds rather than wall time.
const gossipRoundTick = 50 * time.Millisecond

// RunGossipRound ticks every node's anti-entropy agent once, serially in
// index order — the simulation's unit of gossip time. Serial ticking plus
// each agent's own seeded peer-ring shuffle keeps runs bit-reproducible:
// replaying a seed replays every exchange in the same order.
func (f *Fed) RunGossipRound(ctx context.Context) {
	for _, n := range f.Nodes {
		n.Core.Gossip.Tick(ctx)
	}
	f.Clock.Advance(gossipRoundTick)
}

// GossipMessages sums the protocol messages (digest exchanges plus deltas
// pushed) every agent has sent so far — the quantity the convergence test
// compares against the flat all-pairs baseline.
func (f *Fed) GossipMessages() int64 {
	var total int64
	for _, n := range f.Nodes {
		total += n.Core.Gossip.Messages()
	}
	return total
}

// GossipConverged reports whether every node's gossip store holds an entry
// for every federation member at that member's current authoritative
// co-database version — the fixed point anti-entropy must reach.
func (f *Fed) GossipConverged() bool {
	for _, n := range f.Nodes {
		store := n.Core.Gossip.Store()
		for _, m := range f.Nodes {
			e, ok := store.Get(m.Name)
			if !ok || e.Version != m.Core.CoDB.Version() {
				return false
			}
		}
	}
	return true
}

// gossipMonotonicity checks the version-monotonicity invariant after every
// gossip round: no store's view of any node may move backward (the
// merge-by-version rule must be airtight even under re-delivered deltas), no
// store may claim a version the authoritative co-database never issued, and
// the mdcache "gossip|<node>" view maintained by the OnApply hook must agree
// with the store it mirrors.
type gossipMonotonicity struct {
	fed  *Fed
	auth map[string]int // node name -> index, for authoritative versions
	last []gossip.Digest
}

func newGossipMonotonicity(f *Fed) *gossipMonotonicity {
	auth := make(map[string]int, len(f.Nodes))
	for i, n := range f.Nodes {
		auth[n.Name] = i
	}
	return &gossipMonotonicity{fed: f, auth: auth, last: make([]gossip.Digest, len(f.Nodes))}
}

// Check returns the first violation found, or "" when the invariant holds.
func (m *gossipMonotonicity) Check() string {
	for i, n := range m.fed.Nodes {
		dig := n.Core.Gossip.Store().Digest()
		for name, ver := range m.last[i] {
			if dig[name] < ver {
				return fmt.Sprintf("%s: gossip view of %s regressed %d -> %d", n.Name, name, ver, dig[name])
			}
		}
		for name, ver := range dig {
			j, ok := m.auth[name]
			if !ok {
				return fmt.Sprintf("%s: gossip store invented node %q", n.Name, name)
			}
			if authVer := m.fed.Nodes[j].Core.CoDB.Version(); ver > authVer {
				return fmt.Sprintf("%s: gossip view of %s at version %d, co-database only at %d", n.Name, name, ver, authVer)
			}
			val, cachedVer, ok := n.Core.MDCache.PeekVersioned("gossip|" + name)
			if !ok {
				continue // never applied through gossip (e.g. boot seed or self)
			}
			if cachedVer > ver {
				return fmt.Sprintf("%s: mdcache holds %s at version %d ahead of store version %d", n.Name, name, cachedVer, ver)
			}
			if e, isEntry := val.(gossip.Entry); !isEntry || e.Version != cachedVer {
				return fmt.Sprintf("%s: mdcache gossip entry for %s does not match its version stamp (%T)", n.Name, name, val)
			}
		}
		m.last[i] = dig
	}
	return ""
}
