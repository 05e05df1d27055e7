// Command webfindit-node runs one WebFINDIT participant as a standalone
// process: its database engine, co-database, ISI and co-database servants on
// an IIOP endpoint, an optional HTTP browser UI, and optional registration
// with a naming service — so multiple processes form a real distributed
// federation, as in the paper's deployment.
//
// Usage:
//
//	webfindit-node -config node.json [-serve-naming]
//
// Config file format (JSON):
//
//	{
//	  "name": "Royal Brisbane Hospital",
//	  "engine": "Oracle",                  // Oracle|mSQL|DB2|Sybase|ObjectStore|Ontos
//	  "orb": "VisiBroker",                 // Orbix|OrbixWeb|VisiBroker
//	  "listen": "127.0.0.1:9001",          // IIOP endpoint
//	  "http": "127.0.0.1:8080",            // optional browser UI endpoint
//	  "naming": "127.0.0.1:9000",          // optional naming service: registers here, resolves At names
//	  "information_type": "Research and Medical",
//	  "documentation": "http://example.org/rbh",
//	  "schema": "CREATE TABLE t (a INT);", // load script (CREATE TABLE/INDEX, INSERT), or:
//	  "schema_file": "schema.sql",
//	  "slow_call_ms": 50,                  // slow-call log threshold (0 = off)
//	  "call_timeout_ms": 2000,             // per-invocation IIOP deadline (0 = none)
//	  "retry_attempts": 3,                 // attempts for idempotent calls (0/1 = no retry)
//	  "min_members": 1,                    // coalition-query quorum (0 = 1)
//	  "member_timeout_ms": 500,            // per-member fan-out deadline (0 = none)
//	  "chaos": { "seed": 1, "rules": [...] }, // optional fault-injection plan (simnet.FaultPlan)
//	  "interface": [ { "name": "T", "functions": [ ... ] } ],
//	  "space": "Create Coalition Medical; Join Coalition Medical At \"RBH\";"
//	}
//
// "space" is a WebTassili script the node's own session runs once it is up
// and registered: the coalitions it creates and joins, the service links it
// holds. Its At clauses name co-databases by IOR or by a database name
// "naming" resolves, so those nodes must be up first. A failing statement
// stops the node.
//
// Those twenty-one keys (with "document_html", "location" and "interface_wtl")
// are all a node reads; an unknown key is an error, not ignored. The
// planner's execution modes (predicate pushdown, cursor streaming, semi-join
// key pushdown, gossip) are not configurable: every node runs them, with
// constant thresholds (cursor pages 64 rows growing to 1024, IN lists up to
// 64 keys then a 10-bits-per-key Bloom filter). So are the ISI cursor
// table's limits (32 open cursors, reaped after 2 idle minutes), the
// metadata cache's 250ms TTL for errors (answers are kept until gossip moves
// their source's version) and entry cap (4096), gossip's pacing (3 peers a
// round, one round a second) and the cursor page's byte budget (256 KiB).
// The keys that used to set any of these, and the two of the circuit breaker
// (removed: a refused dial already fails fast, and member_timeout_ms bounds
// a silent member), are refused by name; see retiredKeys.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/browser"
	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/wtl"
)

type nodeFile struct {
	Name            string `json:"name"`
	Engine          string `json:"engine"`
	ORB             string `json:"orb"`
	Listen          string `json:"listen"`
	HTTP            string `json:"http"`
	Naming          string `json:"naming"`
	InformationType string `json:"information_type"`
	Documentation   string `json:"documentation"`
	DocumentHTML    string `json:"document_html"`
	Location        string `json:"location"`
	Schema          string `json:"schema"`
	SchemaFile      string `json:"schema_file"`
	Space           string `json:"space"` // information-space script run at boot
	// SlowCallMS sets the tracer's slow-call threshold in milliseconds:
	// spans at least this slow are kept in the slow-call ring
	// (/debug/trace/slow) and logged. 0 disables the slow-call log.
	SlowCallMS int `json:"slow_call_ms"`
	// Fault-tolerance policy for outbound IIOP calls and coalition fan-out.
	CallTimeoutMS   int                 `json:"call_timeout_ms"`
	RetryAttempts   int                 `json:"retry_attempts"`
	MinMembers      int                 `json:"min_members"`
	MemberTimeoutMS int                 `json:"member_timeout_ms"`
	Chaos           *simnet.FaultPlan   `json:"chaos"`
	Interface       []codb.ExportedType `json:"interface"`
	// InterfaceWTL declares the exported interface in the paper's WebTassili
	// syntax (Type X { attribute ...; function ...; }) instead of JSON.
	InterfaceWTL string `json:"interface_wtl"`
}

// retiredKeys are config keys earlier releases read and this one does not:
// each selected (or tuned) an execution mode that is now the only one, set a
// cursor-table, metadata-cache, gossip or framing value that is now a
// constant, or configured the circuit breaker, which is gone.
var retiredKeys = map[string]bool{
	"disable_pushdown": true, "merge_buf_rows": true, "disable_semijoin": true,
	"semijoin_key_limit": true, "semijoin_bloom_bits": true,
	"disable_streaming": true, "disable_gossip": true, "subcoalition_size": true,
	"cursor_max_open": true, "cursor_idle_ms": true,
	"mdcache_neg_ttl_ms": true, "mdcache_max_entries": true,
	"mdcache_ttl_ms": true, "gossip_interval_ms": true, "gossip_fanout": true,
	"fragment_threshold_bytes": true, "breaker_threshold": true, "breaker_cooldown_ms": true,
}

// parseConfig decodes a node config strictly: a key the node does not read
// is an error naming it, so a typo or a retired knob is never silently
// dropped.
func parseConfig(data []byte) (nodeFile, error) {
	var cfg nodeFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		// encoding/json reports an unknown key as: json: unknown field "key"
		if key, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
			key = strings.Trim(key, `"`)
			if retiredKeys[strings.ToLower(key)] {
				return cfg, fmt.Errorf("config key %q was retired in this release: the mode or limit it set is no longer configurable; remove the key", key)
			}
			return cfg, fmt.Errorf("unknown config key %q", key)
		}
		return cfg, err
	}
	if dec.More() {
		return cfg, fmt.Errorf("unexpected data after the config object")
	}
	return cfg, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("webfindit-node: ")
	configPath := flag.String("config", "", "path to the node's JSON config")
	serveNaming := flag.Bool("serve-naming", false, "also host a naming service on this node's ORB")
	flag.Parse()
	if *configPath == "" {
		log.Fatal("the -config flag is required")
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := parseConfig(data)
	if err != nil {
		log.Fatalf("parse %s: %v", *configPath, err)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.ORB == "" {
		cfg.ORB = string(orb.Orbix)
	}

	tracer := trace.New(trace.Options{
		SlowThreshold: time.Duration(cfg.SlowCallMS) * time.Millisecond,
		SlowLog:       log.Printf,
	})
	tracer.Publish("node", func() any { return cfg.Name })

	var transport orb.Transport // nil: the ORB's own TCP
	if cfg.Chaos != nil {
		faults := simnet.NewFaultTransport(orb.TCP{}, cfg.Chaos)
		transport = faults
		tracer.Publish("chaos", func() any { return map[string]int64{"faults_injected": faults.Injected()} })
		log.Printf("chaos: fault-injection plan active (%d rule(s))", len(cfg.Chaos.Rules))
	}
	o := orb.New(orb.Options{
		Product:       orb.Product(cfg.ORB),
		CallTimeout:   time.Duration(cfg.CallTimeoutMS) * time.Millisecond,
		RetryAttempts: cfg.RetryAttempts,
		Transport:     transport,
	})
	o.EnableTracing(tracer)
	tracer.Publish("orb", func() any { return o.Stats.Snapshot() })
	if err := o.Listen(cfg.Listen); err != nil {
		log.Fatal(err)
	}
	defer o.Shutdown()
	log.Printf("ORB %s listening on %s", cfg.ORB, o.Addr())

	if *serveNaming {
		if _, _, err := naming.Serve(o); err != nil {
			log.Fatal(err)
		}
		log.Printf("naming service active at %s", o.Addr())
	}

	iface := cfg.Interface
	if cfg.InterfaceWTL != "" {
		parsed, err := codb.ParseInterface(cfg.InterfaceWTL)
		if err != nil {
			log.Fatalf("interface_wtl: %v", err)
		}
		iface = append(iface, parsed...)
	}
	schema := cfg.Schema
	if cfg.SchemaFile != "" {
		body, err := os.ReadFile(cfg.SchemaFile)
		if err != nil {
			log.Fatal(err)
		}
		schema = string(body)
	}
	node, err := core.NewNode(core.NodeConfig{
		Name:            cfg.Name,
		Engine:          cfg.Engine,
		ORB:             o,
		InformationType: cfg.InformationType,
		Documentation:   cfg.Documentation,
		DocumentHTML:    cfg.DocumentHTML,
		Location:        cfg.Location,
		Interface:       iface,
		Schema:          schema,
		Naming:          cfg.Naming,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Agent counters: rounds, deltas sent/applied, digest/delta bytes,
	// convergence lag.
	tracer.Publish("gossip", func() any { return node.Gossip.Stats() })
	gossipCtx, stopGossip := context.WithCancel(context.Background())
	defer stopGossip()
	go node.StartGossip(gossipCtx)
	log.Print("gossip agent active")
	tracer.Publish("mdcache", func() any { return node.MDCache.Snapshot() })
	if node.RelDB != nil {
		tracer.Publish("plancache", func() any { return node.RelDB.PlanCacheStats() })
	}
	tracer.Publish("planner", func() any { return node.Processor.PlannerStats() })
	tracer.Publish("cursors", func() any { return node.CursorStats() })
	tracer.Publish("parserpool", func() any {
		return map[string]any{
			"sql": relational.SQLParserPoolStats(),
			"wtl": wtl.PoolStats(),
		}
	})
	node.Processor.SetMemberPolicy(cfg.MinMembers, time.Duration(cfg.MemberTimeoutMS)*time.Millisecond)
	log.Printf("node %q up: engine=%s wrapper=%s", cfg.Name, cfg.Engine, node.Descriptor.Wrapper)
	fmt.Printf("ISI IOR:        %s\n", node.Descriptor.ISIRef)
	fmt.Printf("CoDatabase IOR: %s\n", node.Descriptor.CoDBRef)

	if cfg.Naming != "" {
		log.Printf("registered with naming service at %s", cfg.Naming)
	}
	if err := node.NewSession().ExecScript(context.Background(), cfg.Space, func(resp *query.Response) {
		log.Printf("space: %s", resp.Text)
	}); err != nil {
		log.Fatalf("space: %v", err)
	}

	if cfg.HTTP != "" {
		mux := http.NewServeMux()
		mux.Handle("/", browser.NewServer(node).Handler())
		// Observability endpoints: per-operation latency histograms and
		// counters, recent/slow spans, published vars (ORB stats included).
		mux.Handle("/debug/", tracer.Handler())
		srv := &http.Server{Addr: cfg.HTTP, Handler: mux}
		go func() {
			log.Printf("browser UI at http://%s/ (metrics at /debug/metrics, traces at /debug/trace)", cfg.HTTP)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
		defer srv.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
}
