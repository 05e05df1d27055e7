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

// nodeCoDB boots a full node, gossip hooks and all, and returns a reference
// to its co-database from another ORB, over IIOP.
func nodeCoDB(t *testing.T) (*core.Node, *orb.ObjectRef) {
	t.Helper()
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
	return n, ref
}

// wantBadOperation fails the test unless err is BAD_OPERATION.
func wantBadOperation(t *testing.T, op string, err error) {
	t.Helper()
	var se *orb.SystemException
	if !errors.As(err, &se) || se.Name != orb.ExcBadOperation {
		t.Fatalf("%s = %v, want BAD_OPERATION", op, err)
	}
}

// TestNoRelayOperation pins that discovery has one path: a full node's
// co-database neither declares nor serves the relay_probe operation of the
// retired two-level tier.
func TestNoRelayOperation(t *testing.T) {
	if _, ok := codb.IDL.Ops["relay_probe"]; ok {
		t.Fatal("co-database IDL declares relay_probe")
	}
	n, ref := nodeCoDB(t)
	_, err := ref.InvokeIdempotent(context.Background(), "relay_probe", idl.String("t"),
		idl.Seq(idl.Struct(idl.F("name", idl.String("Full")), idl.F("ref", idl.String(n.Descriptor.CoDBRef)))))
	wantBadOperation(t, "relay_probe", err)
}

// TestNoRemoteSchemaOperations pins that a co-database takes coalition and
// service-link definitions only from its own node (Create Coalition and
// Create Service Link run against the node's in-process co-database): a peer
// asking for define_coalition or add_link gets BAD_OPERATION, and nothing is
// defined.
func TestNoRemoteSchemaOperations(t *testing.T) {
	for _, op := range []string{"define_coalition", "add_link"} {
		if _, ok := codb.IDL.Ops[op]; ok {
			t.Fatalf("co-database IDL declares %s", op)
		}
	}
	n, ref := nodeCoDB(t)
	ctx := context.Background()
	_, err := ref.InvokeCtx(ctx, "define_coalition", idl.String("Intruder"), idl.String(""), idl.String("x"))
	wantBadOperation(t, "define_coalition", err)
	link := &codb.ServiceLink{Name: "Intruder_Link", FromKind: "database", From: "Full", ToKind: "database", To: "Elsewhere"}
	_, err = ref.InvokeCtx(ctx, "add_link", link.ToAny())
	wantBadOperation(t, "add_link", err)
	if cs, ls := n.CoDB.Coalitions(), n.CoDB.Links(); len(cs) != 0 || len(ls) != 0 {
		t.Fatalf("after the refused calls: coalitions %v, links %v", cs, ls)
	}
}
