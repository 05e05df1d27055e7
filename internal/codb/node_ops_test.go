package codb_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/idl"
	"repro/internal/orb"
)

// TestNoRelayOperation pins that discovery has one path: a full node's
// co-database, gossip hooks and all, neither declares nor serves the
// relay_probe operation of the retired two-level tier.
func TestNoRelayOperation(t *testing.T) {
	if _, ok := codb.IDL.Ops["relay_probe"]; ok {
		t.Fatal("co-database IDL declares relay_probe")
	}
	server := orb.New(orb.Options{Product: orb.Orbix})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	n, err := core.NewNode(core.NodeConfig{Name: "Full", Engine: core.EngineOracle, ORB: server})
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Product: orb.VisiBroker, DisableColocation: true})
	t.Cleanup(client.Shutdown)
	ref, err := client.ResolveString(n.Descriptor.CoDBRef)
	if err != nil {
		t.Fatal(err)
	}
	var se *orb.SystemException
	_, err = ref.InvokeIdempotent(context.Background(), "relay_probe", idl.String("t"),
		idl.Seq(idl.Struct(idl.F("name", idl.String("Full")), idl.F("ref", idl.String(n.Descriptor.CoDBRef)))))
	if !errors.As(err, &se) || se.Name != orb.ExcBadOperation {
		t.Fatalf("relay_probe = %v, want BAD_OPERATION", err)
	}
}
