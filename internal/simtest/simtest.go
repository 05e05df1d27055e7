// Package simtest is the scenario kit on top of internal/simnet: it
// assembles whole multi-node WebFINDIT federations in one process with zero
// real sockets, generates seeded random topologies and workloads, checks
// cross-cutting invariants after every step (trace continuity, partial-result
// accounting, metadata-cache coherence, cursors released), and runs a
// model-based comparison of federation query results against a flat
// in-memory oracle. Every failure banner includes a `-simnet.seed=N`
// one-liner that replays the exact run: same seed, same event order, same
// verdict.
package simtest

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/mdcache"
	"repro/internal/oodb"
	"repro/internal/orb"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// BaseCoalition is the coalition every node belongs to for the whole run.
// It gives discovery a connectivity backbone (stage-3 peer probes and
// coalition-entry searches walk its member list) and is never the target of
// generated Join/Leave/Partition-sensitive assertions.
const BaseCoalition = "fedbase"

// Config sizes a simulated federation.
type Config struct {
	// Seed drives topology generation and the workload. Replaying a seed
	// reproduces the run.
	Seed int64
	// Nodes is the federation size (default 6).
	Nodes int
	// ORB is the base option set for every node's ORB; Transport, Product
	// and DisableColocation are overridden per node. Leave RetryAttempts
	// zero for an exact oracle (no retry state to model).
	ORB orb.Options
	// Hetero cycles the nodes through the paper's engine set (Oracle, mSQL,
	// ObjectStore, DB2, Ontos, Sybase) instead of all-Oracle, and makes node
	// 1 a metadata-drift member: it runs mSQL but advertises Oracle, so the
	// planner pushes clauses (LIKE) the engine then rejects and must recover
	// from. Off by default — the model-based tests assume all-Oracle.
	Hetero bool
	// RowsPerNode seeds each node's r table with this many rows (default 1,
	// the single ('a', i) row the model oracle predicts; extra rows keep
	// that row so model runs stay exact). Row r > 0 of node i is
	// ('k<rr>', i*1000+r), giving pushdown queries selective predicates,
	// LIKE-able keys and enough volume for LIMIT to bite.
	RowsPerNode int
	// CoalitionSize is the member count of each named coalition ("c0"…)
	// (default 4): coalitions are overlapping windows of this many members
	// laid over a seeded permutation ring, so membership forms one connected
	// chain of small coalitions and no node needs global knowledge at boot.
	// The window count derives from Nodes (genTopology).
	CoalitionSize int
	// NoBaseCoalition drops the all-nodes backbone coalition, leaving only
	// the generated ones. Large gossip federations set it: a coalition
	// spanning all N nodes would seed every gossip store with the full
	// membership at boot and make convergence (and the flat-baseline
	// comparison) vacuous.
	NoBaseCoalition bool
	// Topology, when set, is the named-coalition membership map (coalition
	// name -> member indexes) instead of a generated one.
	Topology map[string][]int
}

// Node is one federation participant: its simulated host, ORB and core node.
// The ORB dials through Faults, a fault injector over the node's endpoint
// with no plan installed; a test installs one with Faults.SetPlan.
type Node struct {
	Idx     int
	Name    string
	Host    string
	Faults  *simnet.FaultTransport
	ORB     *orb.ORB
	Core    *core.Node
	Session *query.Session
}

// Fed is a running federation over simnet.
type Fed struct {
	Net    *simnet.Net
	Clock  *simnet.Clock
	Tracer *trace.Tracer
	Nodes  []*Node
	Seed   int64

	// Members is the initial topology: coalition name -> member indexes,
	// in index order. The oracle evolves its own copy as the workload
	// joins and leaves.
	Members map[string][]int

	rng *rand.Rand
}

// Build boots a federation over a fresh simnet: every node on its own
// simulated host and ORB (colocation disabled, so every call crosses the
// simulated wire), tracing enabled on a federation-wide tracer, metadata
// caches pinned to the virtual clock, and every coalition formed by its
// members' own statements (core.FormCoalition, as for a core.Federation).
func Build(cfg Config) (*Fed, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 6
	}
	if cfg.CoalitionSize <= 0 {
		cfg.CoalitionSize = 4
	}
	snet := simnet.New(cfg.Seed)
	fed := &Fed{
		Net:    snet,
		Clock:  snet.Clock(),
		Tracer: trace.New(trace.Options{Capacity: 8192}),
		Seed:   cfg.Seed,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	products := []orb.Product{orb.Orbix, orb.OrbixWeb, orb.VisiBroker}
	for i := 0; i < cfg.Nodes; i++ {
		ep := snet.Endpoint(fmt.Sprintf("n%d", i))
		faults := simnet.NewFaultTransport(ep, nil)
		opts := cfg.ORB
		opts.Transport = faults
		opts.Product = products[i%len(products)]
		opts.DisableColocation = true
		o := orb.New(opts)
		if err := o.Listen(":0"); err != nil {
			fed.Close()
			return nil, err
		}
		o.EnableTracing(fed.Tracer)
		name := fmt.Sprintf("N%d", i)
		nc := core.NodeConfig{
			Name:            name,
			Engine:          core.EngineOracle,
			ORB:             o,
			InformationType: "records",
			Interface: []codb.ExportedType{{
				Name: "R",
				Functions: []codb.ExportedFunction{{
					Name: "V", Returns: "int",
					Table: "r", ResultColumn: "v", ArgColumn: "k",
				}, {
					// K is V's inverse (string keys out, int values in) so
					// semi-join workloads can correlate string-typed columns.
					Name: "K", Returns: "string",
					Table: "r", ResultColumn: "k", ArgColumn: "v",
				}},
			}},
			Clock: fed.Clock.Now,
			// Each agent shuffles its peer ring from its own stream, derived
			// from the run seed so replaying a seed replays every walk.
			GossipSeed: cfg.Seed*1009 + int64(i) + 1,
		}
		if cfg.Hetero {
			nc.Engine = heteroEngines[i%len(heteroEngines)]
			if i == 1 {
				// The drift member: runs mSQL, claims Oracle. The planner
				// believes the claim, pushes LIKE, and the engine rejects it
				// mid-query — exercising the bare-fragment fallback.
				nc.AdvertiseEngine = core.EngineOracle
			}
		}
		seedNodeData(&nc, i, cfg.RowsPerNode)
		node, err := core.NewNode(nc)
		if err != nil {
			fed.Close()
			return nil, err
		}
		node.Processor.SetFanOut(1) // serial fan-out: deterministic event order
		node.Processor.SetMemberPolicy(1, 0)
		fed.Nodes = append(fed.Nodes, &Node{
			Idx:     i,
			Name:    name,
			Host:    ep.Host(),
			Faults:  faults,
			ORB:     o,
			Core:    node,
			Session: node.NewSession(),
		})
	}

	// Seeded topology: the base coalition spans everyone (unless dropped);
	// the named coalitions come from the windowed generator.
	fed.Members = map[string][]int{}
	if !cfg.NoBaseCoalition {
		fed.Members[BaseCoalition] = allIndexes(cfg.Nodes)
	}
	topology := cfg.Topology
	if topology == nil {
		topology = genTopology(fed.rng, cfg.Nodes, cfg.CoalitionSize)
	}
	maps.Copy(fed.Members, topology)
	// Members form their coalitions over the simulated wire with the
	// statements an operator would run, coalitions in sorted order so a seed
	// replays the same events.
	for _, name := range slices.Sorted(maps.Keys(fed.Members)) {
		var members []*core.Node
		for _, i := range fed.Members[name] {
			members = append(members, fed.Nodes[i].Core)
		}
		if err := core.FormCoalition(name, "", "", members); err != nil {
			fed.Close()
			return nil, err
		}
	}
	return fed, nil
}

// Close shuts down every ORB and the simulated network.
func (f *Fed) Close() {
	for _, n := range f.Nodes {
		if n.ORB != nil {
			n.ORB.Shutdown()
		}
	}
	f.Net.Close()
}

// Partition cuts the simulated link between two nodes.
func (f *Fed) Partition(a, b int) { f.Net.Partition(f.Nodes[a].Host, f.Nodes[b].Host) }

// Heal restores the simulated link between two nodes.
func (f *Fed) Heal(a, b int) { f.Net.Heal(f.Nodes[a].Host, f.Nodes[b].Host) }

// HealAll restores every link.
func (f *Fed) HealAll() { f.Net.HealAll() }

// settleRounds bounds Settle's gossip rounds. Versions only move while no
// link is cut (the generator's rule for Join and Leave), so a six-node
// federation converges in a few rounds; the bound only stops a run whose
// partitions keep some store behind.
const settleRounds = 16

// Settle brings the federation to rest between model steps. Gossip rounds run
// until every store holds every node at its current version, so no cached
// peer answer outlives a mutation the oracle has applied; then the clock moves
// past NegTTL, so no cached error does either. It keeps the oracle exact.
func (f *Fed) Settle(ctx context.Context) {
	for r := 0; r < settleRounds && !f.GossipConverged(); r++ {
		f.RunGossipRound(ctx)
	}
	f.Clock.Advance(mdcache.NegTTL + time.Millisecond)
}

// heteroEngines is the cycle Config.Hetero assigns over node indexes: the
// paper's four relational vendors interleaved with its two object engines.
var heteroEngines = []string{
	core.EngineOracle, core.EngineMSQL, core.EngineObjectStore,
	core.EngineDB2, core.EngineOntos, core.EngineSybase,
}

// seedNodeData fills node i's data source with `rows` rows (minimum 1). Row
// 0 is the ('a', i) row the model oracle predicts; row r is ('k<rr>',
// i*1000+r). Relational engines seed through the DDL script, object engines
// through their native API — same logical content either way.
func seedNodeData(nc *core.NodeConfig, i, rows int) {
	if rows <= 0 {
		rows = 1
	}
	if core.IsRelational(nc.Engine) {
		var b strings.Builder
		b.WriteString("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);\n")
		for r := 0; r < rows; r++ {
			k, v := rowKV(i, r)
			fmt.Fprintf(&b, "INSERT INTO r VALUES ('%s', %d);\n", k, v)
		}
		nc.Schema = b.String()
		return
	}
	nc.SeedObjects = func(db *oodb.DB) error {
		if _, err := db.DefineClass("r", "",
			oodb.Attribute{Name: "k", Type: oodb.AttrString},
			oodb.Attribute{Name: "v", Type: oodb.AttrInt}); err != nil {
			return err
		}
		for r := 0; r < rows; r++ {
			k, v := rowKV(i, r)
			if _, err := db.NewObject("r", map[string]any{"k": k, "v": int64(v)}); err != nil {
				return err
			}
		}
		return nil
	}
}

// rowKV is the deterministic content of node i's row r.
func rowKV(i, r int) (string, int) {
	if r == 0 {
		return "a", i
	}
	return fmt.Sprintf("k%02d", r), i*1000 + r
}

func allIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
