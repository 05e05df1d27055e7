package gossip

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The protocol's pacing. Every node runs these values; none is configurable.
const (
	// Fanout is how many peers each round contacts.
	Fanout = 3
	// Interval paces Start's background loop. Tick ignores it.
	Interval = time.Second
	// SuspectAfter is how many consecutive failed exchanges mark a peer dead.
	SuspectAfter = 2
)

// Config wires an Agent to its node. Self, Exchange and Push are required
// for a functioning agent; everything else is optional.
type Config struct {
	// Self snapshots the local node's entry (name, current co-database
	// version, reference, coalition memberships). It is read at the start of
	// every round, and before every pull served, so local mutations enter
	// circulation within one round and a node learning us gets our current
	// version.
	Self func() Entry
	// Seeds lists bootstrap knowledge — typically version-0 entries built
	// from the local co-database's member lists. Re-read every round, so
	// locally learned members (a Join, an advertise) become gossip peers
	// without waiting to hear about themselves from others.
	Seeds func() []Entry
	// Exchange performs the pull half of a round against a peer's
	// co-database reference: it ships our digest and returns the peer's
	// delta (entries newer than the digest) plus the peer's own digest.
	Exchange func(ctx context.Context, ref string, digest []byte) (delta, peerDigest []byte, err error)
	// Push ships entries the peer was missing (the push half). Optional;
	// without it the protocol degenerates to pull-only anti-entropy, which
	// still converges, just in more rounds.
	Push func(ctx context.Context, ref string, delta []byte) error

	// Seed makes peer-selection deterministic; 0 selects 1. Simulations
	// derive it from the run seed so replays pick identical peers.
	Seed int64
}

// Stats is a point-in-time snapshot of the agent's counters, published at
// /debug/metrics under "gossip".
type Stats struct {
	Rounds        int64 `json:"rounds"`         // anti-entropy rounds run
	Exchanges     int64 `json:"exchanges"`      // pull RPCs attempted
	Pushes        int64 `json:"pushes"`         // push RPCs sent
	Failures      int64 `json:"failures"`       // exchange/push RPCs that failed
	DeltasSent    int64 `json:"deltas_sent"`    // entries shipped to peers (pushes + served pulls)
	DeltasApplied int64 `json:"deltas_applied"` // entries merged into the local store
	DigestBytes   int64 `json:"digest_bytes"`   // digest payload bytes sent and served
	DeltaBytes    int64 `json:"delta_bytes"`    // delta payload bytes sent and served
	PeersKnown    int   `json:"peers_known"`    // gossip-able peers in the store
	PeersDead     int   `json:"peers_dead"`     // peers past the failure threshold
	LastApplyLag  int64 `json:"last_apply_lag"` // rounds since a merge last applied something (convergence lag)
}

// Agent runs the anti-entropy protocol for one node. Tick is one round;
// Start loops Tick every Interval. The servant-side HandlePull and
// HandlePush methods satisfy the co-database's gossip hooks, so one Agent
// is both the initiator and the responder of exchanges.
type Agent struct {
	cfg   Config
	store *Store

	// ring is the shuffled peer walk: every known peer is contacted exactly
	// once per cycle, giving failure detection a deterministic bound.
	ringMu sync.Mutex
	ring   []Entry
	rng    *rand.Rand

	rounds, exchanges, pushes, failures atomic.Int64
	deltasSent, deltasApplied           atomic.Int64
	digestBytes, deltaBytes             atomic.Int64
	lastApplyRound                      atomic.Int64
}

// New creates an agent.
func New(cfg Config) *Agent {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	self := ""
	if cfg.Self != nil {
		// The owner name is stable; snapshot it once so the store can refuse
		// remote claims about the local node from the very first exchange.
		self = cfg.Self().Node
	}
	return &Agent{
		cfg:   cfg,
		store: NewStore(self),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Store exposes the agent's metadata replica and liveness view.
func (a *Agent) Store() *Store { return a.store }

// Stats snapshots the counters.
func (a *Agent) Stats() Stats {
	rounds := a.rounds.Load()
	return Stats{
		Rounds:        rounds,
		Exchanges:     a.exchanges.Load(),
		Pushes:        a.pushes.Load(),
		Failures:      a.failures.Load(),
		DeltasSent:    a.deltasSent.Load(),
		DeltasApplied: a.deltasApplied.Load(),
		DigestBytes:   a.digestBytes.Load(),
		DeltaBytes:    a.deltaBytes.Load(),
		PeersKnown:    len(a.store.Peers()),
		PeersDead:     a.store.DeadCount(),
		LastApplyLag:  rounds - a.lastApplyRound.Load(),
	}
}

// Messages reports the total gossip RPCs this agent initiated (pulls plus
// pushes) — the quantity the scale tests compare against the flat fan-out
// baseline.
func (a *Agent) Messages() int64 { return a.exchanges.Load() + a.pushes.Load() }

// refresh re-reads the local entry and bootstrap seeds into the store.
func (a *Agent) refresh() {
	if a.cfg.Self != nil {
		a.store.SetSelf(a.cfg.Self())
	}
	if a.cfg.Seeds != nil {
		a.store.Apply(a.cfg.Seeds())
	}
}

// nextPeers returns up to n peers, walking the shuffled ring and reshuffling
// from the current store population when the ring runs dry.
func (a *Agent) nextPeers(n int) []Entry {
	a.ringMu.Lock()
	defer a.ringMu.Unlock()
	var out []Entry
	for len(out) < n {
		if len(a.ring) == 0 {
			peers := a.store.Peers()
			if len(peers) == 0 {
				break
			}
			a.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
			a.ring = peers
		}
		out = append(out, a.ring[0])
		a.ring = a.ring[1:]
		if len(out) >= n && len(a.ring) == 0 {
			break
		}
	}
	return out
}

// CycleLen returns the current peer-walk cycle length: the number of rounds
// within which every known peer is contacted at least once, ceil(peers /
// fanout). Tests derive the failure-detection bound from it.
func (a *Agent) CycleLen() int {
	peers := len(a.store.Peers())
	if peers == 0 {
		return 1
	}
	return (peers + Fanout - 1) / Fanout
}

// Tick runs one anti-entropy round: refresh local knowledge, then push-pull
// with the next Fanout peers on the ring. Deterministic given the agent seed
// and the sequence of prior rounds, which is what lets the simulation tests
// replay convergence runs exactly.
func (a *Agent) Tick(ctx context.Context) {
	a.rounds.Add(1)
	a.refresh()
	for _, peer := range a.nextPeers(Fanout) {
		if err := a.exchange(ctx, peer.CoDBRef); err != nil {
			a.store.ReportFailure(peer.Node)
		} else {
			a.store.ReportSuccess(peer.Node)
		}
	}
}

// Learn runs one exchange with the co-database at ref, which the store holds
// nothing from yet: its entry, and whatever else it knows, lands in the store,
// and it is a gossip peer from then on. The query layer calls it on the first
// metadata miss against such a co-database, and asks the store afterwards
// whether it worked.
func (a *Agent) Learn(ctx context.Context, ref string) { a.exchange(ctx, ref) }

// exchange runs one push-pull exchange with the co-database at ref.
func (a *Agent) exchange(ctx context.Context, ref string) error {
	digest := EncodeDigest(a.store.Digest())
	a.digestBytes.Add(int64(len(digest)))
	a.exchanges.Add(1)
	deltaBytes, peerDigestBytes, err := a.cfg.Exchange(ctx, ref, digest)
	if err != nil {
		a.failures.Add(1)
		return err
	}
	a.deltaBytes.Add(int64(len(deltaBytes)))
	if entries, derr := DecodeDelta(deltaBytes); derr == nil {
		a.apply(entries)
	}
	peerDigest, derr := DecodeDigest(peerDigestBytes)
	if derr != nil || a.cfg.Push == nil {
		return nil
	}
	missing := a.store.DeltaSince(peerDigest)
	if len(missing) == 0 {
		return nil
	}
	payload := EncodeDelta(missing)
	a.pushes.Add(1)
	a.deltaBytes.Add(int64(len(payload)))
	if err := a.cfg.Push(ctx, ref, payload); err != nil {
		a.failures.Add(1)
		return err
	}
	a.deltasSent.Add(int64(len(missing)))
	return nil
}

// apply merges entries and reports how many landed.
func (a *Agent) apply(entries []Entry) int {
	applied := a.store.Apply(entries)
	if len(applied) == 0 {
		return 0
	}
	a.deltasApplied.Add(int64(len(applied)))
	a.lastApplyRound.Store(a.rounds.Load())
	return len(applied)
}

// HandlePull is the servant-side pull handler: given the caller's digest,
// return our delta (what the caller is missing) plus our own digest so the
// caller can push back what we are missing. Our own entry is re-read first.
func (a *Agent) HandlePull(digest []byte) (delta, selfDigest []byte, err error) {
	d, err := DecodeDigest(digest)
	if err != nil {
		return nil, nil, err
	}
	if a.cfg.Self != nil {
		a.store.SetSelf(a.cfg.Self())
	}
	missing := a.store.DeltaSince(d)
	payload := EncodeDelta(missing)
	own := EncodeDigest(a.store.Digest())
	a.deltasSent.Add(int64(len(missing)))
	a.deltaBytes.Add(int64(len(payload)))
	a.digestBytes.Add(int64(len(own)))
	return payload, own, nil
}

// HandlePush is the servant-side push handler: merge the entries the caller
// believes we are missing.
func (a *Agent) HandlePush(delta []byte) (int, error) {
	entries, err := DecodeDelta(delta)
	if err != nil {
		return 0, err
	}
	return a.apply(entries), nil
}

// Start loops Tick every Interval until the context ends. Production nodes
// run it on a goroutine; deterministic simulations drive Tick directly.
func (a *Agent) Start(ctx context.Context) {
	for {
		t := time.NewTimer(Interval)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
		a.Tick(ctx)
	}
}
