package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/orb"
)

// Fixture fed13: 13 nodes S0..S12 in one process, colocation off so every
// hop between nodes is GIOP over loopback TCP. Coalition C = S0..S5,
// coalition D = S6..S12, service links C<->D. S12 is the floater that joins
// and leaves C on the churn workload. Every member holds rowsPerMember rows
// ('x<i>-<j>', j) in table/class r and exports R.V (result v) and R.K
// (result k), so every right answer has a closed form (see oracle.go).
const (
	fedNodes      = 13
	coalitionC    = 6 // S0..S5
	floater       = 12
	rowsPerMember = 2000
)

var (
	fedEngines = []string{core.EngineOracle, core.EngineMSQL, core.EngineDB2,
		core.EngineSybase, core.EngineObjectStore, core.EngineOntos}
	fedProducts = []orb.Product{orb.Orbix, orb.OrbixWeb, orb.VisiBroker}
)

func nodeName(i int) string  { return fmt.Sprintf("S%d", i) }
func rowKey(i, j int) string { return fmt.Sprintf("x%d-%d", i, j) }

type fixture struct {
	fed        *core.Federation
	nodes      []*core.Node
	stopGossip context.CancelFunc
	gossiping  sync.WaitGroup
}

// buildFixture assembles fed13 and starts gossip on every node, as
// webfindit-node does. Every NodeConfig field outside name, engine, seed
// data, information type and interface keeps its default.
func buildFixture() (*fixture, error) {
	fed, err := core.NewFederation(orb.Options{DisableColocation: true})
	if err != nil {
		return nil, err
	}
	fx := &fixture{fed: fed}
	iface := []codb.ExportedType{{Name: "R", Functions: []codb.ExportedFunction{
		{Name: "V", Returns: "int", Table: "r", ResultColumn: "v", ArgColumn: "k"},
		{Name: "K", Returns: "string", Table: "r", ResultColumn: "k", ArgColumn: "v"},
	}}}
	names := make([]string, fedNodes)
	for i := range names {
		names[i] = nodeName(i)
		cfg := core.NodeConfig{
			Name:            names[i],
			Engine:          fedEngines[i%len(fedEngines)],
			InformationType: "records",
			Interface:       iface,
		}
		if core.IsRelational(cfg.Engine) {
			var b strings.Builder
			b.WriteString("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);\nCREATE INDEX r_v ON r (v);\n")
			for j := 0; j < rowsPerMember; j++ {
				fmt.Fprintf(&b, "INSERT INTO r VALUES ('%s', %d);\n", rowKey(i, j), j)
			}
			cfg.Schema = b.String()
		} else {
			cfg.SeedObjects = func(db *oodb.DB) error {
				if _, err := db.DefineClass("r", "",
					oodb.Attribute{Name: "k", Type: oodb.AttrString},
					oodb.Attribute{Name: "v", Type: oodb.AttrInt}); err != nil {
					return err
				}
				for j := 0; j < rowsPerMember; j++ {
					if _, err := db.NewObject("r", map[string]any{"k": rowKey(i, j), "v": int64(j)}); err != nil {
						return err
					}
				}
				return nil
			}
		}
		n, err := fed.AddNode(fedProducts[i%len(fedProducts)], cfg)
		if err != nil {
			fed.Shutdown()
			return nil, err
		}
		fx.nodes = append(fx.nodes, n)
	}
	steps := []func() error{
		func() error { return fed.DefineCoalition("C", "", "ledger archive", names[:coalitionC]...) },
		func() error { return fed.DefineCoalition("D", "", "survey samples", names[coalitionC:]...) },
		func() error {
			return fed.AddLink(core.LinkSpec{Name: "CtoD", FromKind: "coalition", From: "C",
				ToKind: "coalition", To: "D", InfoType: "survey samples", Description: "from ledger"})
		},
		func() error {
			return fed.AddLink(core.LinkSpec{Name: "DtoC", FromKind: "coalition", From: "D",
				ToKind: "coalition", To: "C", InfoType: "ledger archive", Description: "from survey"})
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			fed.Shutdown()
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	fx.stopGossip = cancel
	for _, n := range fx.nodes {
		fx.gossiping.Add(1)
		go func() {
			defer fx.gossiping.Done()
			n.StartGossip(ctx)
		}()
	}
	return fx, nil
}

// Close stops gossip, waits for the agents' loops to return and shuts the
// three ORBs down.
func (fx *fixture) Close() {
	fx.stopGossip()
	fx.gossiping.Wait()
	fx.fed.Shutdown()
}
