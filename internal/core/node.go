// Package core assembles the WebFINDIT system: a Node couples one database
// (relational or object-oriented engine) with its co-database, its
// Information Source Interface servant and its co-database servant on an
// ORB; a Federation wires nodes into coalitions and service links across the
// three ORB products, reproducing the architecture of the paper's Figures 2
// and 3.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/codb"
	"repro/internal/cursor"
	"repro/internal/gateway"
	"repro/internal/gossip"
	"repro/internal/mdcache"
	"repro/internal/oodb"
	"repro/internal/orb"
	"repro/internal/query"
	"repro/internal/relational"
)

// Engine names accepted by NodeConfig (the five DBMSs of the paper plus
// Sybase, which the paper lists as supported).
const (
	EngineOracle      = "Oracle"
	EngineMSQL        = "mSQL"
	EngineDB2         = "DB2"
	EngineSybase      = "Sybase"
	EngineObjectStore = "ObjectStore"
	EngineOntos       = "Ontos"
)

// IsRelational reports whether the engine is a relational DBMS.
func IsRelational(engine string) bool {
	switch engine {
	case EngineOracle, EngineMSQL, EngineDB2, EngineSybase:
		return true
	}
	return false
}

// NodeConfig describes one participating database.
type NodeConfig struct {
	Name            string // database name, e.g. "Royal Brisbane Hospital"
	Engine          string // one of the Engine* constants
	ORB             *orb.ORB
	InformationType string
	Documentation   string // URL
	DocumentHTML    string // document body served by the browser layer
	Location        string // advertised location; defaults to the ORB address
	Interface       []codb.ExportedType
	// Schema, for relational engines, is a SQL script (DDL + seed rows) run
	// at construction. Object engines seed through SeedObjects.
	Schema string
	// SeedObjects, for object engines, populates the fresh OO database.
	SeedObjects func(*oodb.DB) error

	// Clock, when set, overrides time.Now for the node's metadata cache
	// (negative entries' expiry) and ISI cursor table (idle reaping).
	// Deterministic simulations (internal/simtest) pin it to the simnet
	// virtual clock so expiry is a virtual-time event that tests advance
	// explicitly.
	Clock func() time.Time

	// AdvertiseEngine, when set, is the engine name the node's source
	// descriptor claims instead of Engine. The node still runs Engine
	// underneath — this models metadata drift (a member whose co-database
	// entry is stale), which the federated planner must tolerate by falling
	// back to full compensation when a pushed clause is rejected.
	AdvertiseEngine string

	// GossipSeed seeds the agent's deterministic peer-ring shuffle; 0 keeps
	// the default. Simulations derive one per node from the run seed.
	GossipSeed int64
}

// Node is one running WebFINDIT participant.
type Node struct {
	Config     NodeConfig
	RelDB      *relational.Database // non-nil for relational engines
	OODB       *oodb.DB             // non-nil for object engines
	CoDB       *codb.CoDatabase
	Descriptor *codb.SourceDescriptor
	ISIIOR     *orb.IOR
	CoDBIOR    *orb.IOR
	Processor  *query.Processor
	MDCache    *mdcache.Cache
	Gossip     *gossip.Agent

	isiConn gateway.Conn
	// isiCursors is the cursor table behind the ISI servant, kept for stats
	// publishing and tests.
	isiCursors *cursor.Table
}

// CursorStats snapshots the ISI servant's cursor counters (open cursors,
// fetches, idle reaps).
func (n *Node) CursorStats() cursor.StatsSnapshot { return n.isiCursors.Snapshot() }

// ISICursors exposes the ISI servant's cursor table (tests assert open
// counts and drive the reaper).
func (n *Node) ISICursors() *cursor.Table { return n.isiCursors }

// isiKey and codbKey name the node's servants on its ORB.
func isiKey(name string) string  { return "ISI/" + name }
func codbKey(name string) string { return "CoDatabase/" + name }

// NewNode builds, seeds and activates a node on its ORB.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: node needs a name")
	}
	if cfg.ORB == nil || cfg.ORB.Addr() == "" {
		return nil, fmt.Errorf("core: node %s needs a listening ORB", cfg.Name)
	}
	n := &Node{Config: cfg, CoDB: codb.New(cfg.Name)}

	// Build the engine and its gateway connection.
	var conn gateway.Conn
	switch {
	case IsRelational(cfg.Engine):
		dialect, err := relational.DialectByName(cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: %w", cfg.Name, err)
		}
		n.RelDB = relational.NewDatabase(cfg.Name, dialect)
		if cfg.Schema != "" {
			if _, err := n.RelDB.ExecScript(cfg.Schema); err != nil {
				return nil, fmt.Errorf("core: node %s schema: %w", cfg.Name, err)
			}
		}
		drv := gateway.NewRelationalDriver(cfg.Engine)
		if err := drv.Add(n.RelDB); err != nil {
			return nil, err
		}
		conn, err = drv.Open(cfg.Name)
		if err != nil {
			return nil, err
		}
	case cfg.Engine == EngineObjectStore || cfg.Engine == EngineOntos:
		n.OODB = oodb.NewDB(cfg.Name)
		if cfg.SeedObjects != nil {
			if err := cfg.SeedObjects(n.OODB); err != nil {
				return nil, fmt.Errorf("core: node %s seed: %w", cfg.Name, err)
			}
		}
		drv := gateway.NewObjectDriver(cfg.Engine)
		drv.Add(n.OODB)
		var err error
		conn, err = drv.Open(cfg.Name)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: node %s: unknown engine %q", cfg.Name, cfg.Engine)
	}
	n.isiConn = conn

	// The gossip agent is created before the servants so the co-database can
	// serve gossip_pull/gossip_push from the first exchange. Its hooks read
	// n.Descriptor through closures evaluated at call time; it is set below,
	// before any traffic can reach the node.
	n.Gossip = codb.NewGossipAgent(cfg.ORB, gossip.Config{
		Self:  n.gossipSelf,
		Seeds: n.gossipSeeds,
		Seed:  cfg.GossipSeed,
	})

	// Activate the servants.
	isiServant, isiCursors := gateway.NewISIServant(conn, cfg.Engine, cfg.Name, cfg.Clock)
	n.isiCursors = isiCursors
	isiIOR, err := cfg.ORB.Activate(isiKey(cfg.Name), isiServant)
	if err != nil {
		return nil, err
	}
	n.ISIIOR = isiIOR
	codbServant := codb.NewServantWith(n.CoDB, codb.ServantOptions{
		Gossip: n.Gossip,
		// A relay_probe landing in the startup window before n.Processor is
		// set gets an empty reply, which coordinators treat as a failed relay.
		Relay: func(ctx context.Context, topic string, members []codb.RelayTarget) []codb.RelayResult {
			if n.Processor == nil {
				return nil
			}
			return n.Processor.RelayProbe(ctx, topic, members)
		},
	})
	codbIOR, err := cfg.ORB.Activate(codbKey(cfg.Name), codbServant)
	if err != nil {
		return nil, err
	}
	n.CoDBIOR = codbIOR

	location := cfg.Location
	if location == "" {
		location = cfg.ORB.Addr()
	}
	advertised := cfg.Engine
	if cfg.AdvertiseEngine != "" {
		advertised = cfg.AdvertiseEngine
	}
	n.Descriptor = &codb.SourceDescriptor{
		Name:            cfg.Name,
		InformationType: cfg.InformationType,
		Documentation:   cfg.Documentation,
		DocumentHTML:    cfg.DocumentHTML,
		Location:        location,
		Wrapper:         "WebTassili" + advertised,
		ISIRef:          orb.Stringify(isiIOR),
		CoDBRef:         orb.Stringify(codbIOR),
		Engine:          advertised,
		ORB:             string(cfg.ORB.Product()),
		Interface:       cfg.Interface,
	}

	resolveInterfaceTables(n)
	n.CoDB.SetOwnerDescriptor(n.Descriptor)

	// Only metadata (the co-database tier) is ever cached: data queries
	// always reach the source.
	n.MDCache = mdcache.New(mdcache.Options{Clock: cfg.Clock})
	n.Processor, err = query.New(query.Config{
		ORB:            cfg.ORB,
		Home:           cfg.Name,
		HomeDescriptor: n.Descriptor,
		Local:          codb.NewClient(cfg.ORB.Resolve(codbIOR)),
		LocalCoDB:      n.CoDB,
		Cache:          n.MDCache,
		Gossip:         n.Gossip,
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// NewSession opens a WebTassili session on this node.
func (n *Node) NewSession() *query.Session { return n.Processor.NewSession() }

// gossipSelf snapshots the node's own gossip entry: name, current
// co-database version, reference and coalition memberships. Read at the
// start of every gossip round, so any local mutation (it bumps Version)
// enters circulation within one round.
func (n *Node) gossipSelf() gossip.Entry {
	e := gossip.Entry{Node: n.Config.Name, Version: n.CoDB.Version()}
	if n.Descriptor != nil {
		e.CoDBRef = n.Descriptor.CoDBRef
	}
	e.Coalitions = n.CoDB.MemberOf()
	return e
}

// gossipSeeds builds the agent's bootstrap knowledge from the local
// co-database's member lists: every coalition peer the node can already name
// becomes a version-0 entry (fills gaps, never displaces gossip). Re-read
// every round, so members learned locally (a Join, an advertise) become
// gossip peers immediately.
func (n *Node) gossipSeeds() []gossip.Entry {
	var out []gossip.Entry
	seen := map[string]bool{}
	for _, coalition := range n.CoDB.MemberOf() {
		members, err := n.CoDB.Members(coalition)
		if err != nil {
			continue
		}
		for _, m := range members {
			if m.Name == n.Config.Name || m.CoDBRef == "" || seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			out = append(out, gossip.Entry{Node: m.Name, Version: 0, CoDBRef: m.CoDBRef})
		}
	}
	return out
}

// StartGossip runs the node's anti-entropy loop until ctx ends. It blocks;
// production nodes run it on a goroutine.
func (n *Node) StartGossip(ctx context.Context) { n.Gossip.Start(ctx) }

// Close deactivates the node's servants.
func (n *Node) Close() error {
	var first error
	if err := n.Config.ORB.Deactivate(isiKey(n.Config.Name)); err != nil && first == nil {
		first = err
	}
	if err := n.Config.ORB.Deactivate(codbKey(n.Config.Name)); err != nil && first == nil {
		first = err
	}
	if n.isiConn != nil {
		if err := n.isiConn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// resolveInterfaceTables maps the logical relation names of exported
// functions (e.g. "ResearchProjects", as written in a WebTassili interface
// declaration) to the physical names the engine actually holds (e.g.
// "research_projects"), matching case- and underscore-insensitively. The
// descriptor keeps the resolved names so every wrapper in the federation
// produces queries the engine accepts.
func resolveInterfaceTables(n *Node) {
	var physical []string
	switch {
	case n.RelDB != nil:
		physical = n.RelDB.TableNames()
	case n.OODB != nil:
		physical = n.OODB.ClassNames()
	default:
		return
	}
	normalize := func(s string) string {
		return strings.ReplaceAll(strings.ToLower(s), "_", "")
	}
	byNorm := make(map[string]string, len(physical))
	for _, p := range physical {
		byNorm[normalize(p)] = p
	}
	for ti := range n.Descriptor.Interface {
		et := &n.Descriptor.Interface[ti]
		for fi := range et.Functions {
			fn := &et.Functions[fi]
			if p, ok := byNorm[normalize(fn.Table)]; ok {
				fn.Table = p
			}
		}
	}
}
