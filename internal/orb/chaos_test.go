package orb

import (
	"strings"
	"testing"

	"repro/internal/idl"
	"repro/internal/simnet"
)

// The chaos acceptance suite lives in chaos_sim_test.go, running over the
// deterministic in-memory transport (internal/simnet). This file keeps one
// socket-based smoke copy so the fault injector is still exercised against
// the real TCP stack.

// startFaultyPair boots a server and a client ORB whose TCP transport is
// wrapped in a fault injector running plan, both with colocation disabled so
// every call crosses the socket (the injector only sees the IIOP path).
func startFaultyPair(t *testing.T, plan *simnet.FaultPlan) (faults *simnet.FaultTransport, ref *ObjectRef) {
	t.Helper()
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	ior, err := server.Activate("Echo", newEchoServant())
	if err != nil {
		t.Fatal(err)
	}
	faults = simnet.NewFaultTransport(TCP{}, plan)
	client := New(Options{Product: VisiBroker, DisableColocation: true, Transport: faults})
	t.Cleanup(client.Shutdown)
	return faults, client.Resolve(ior)
}

func TestChaosInjectedConnectFailure(t *testing.T) {
	faults, ref := startFaultyPair(t, &simnet.FaultPlan{Rules: []simnet.FaultRule{{FailConnect: 1}}})
	_, err := ref.Invoke("echo", idl.String("x"))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcCommFailure {
		t.Fatalf("want injected COMM_FAILURE, got %v", err)
	}
	if !strings.Contains(se.Detail, "injected connect failure") {
		t.Errorf("detail = %q", se.Detail)
	}
	if n := faults.Injected(); n == 0 {
		t.Error("injected fault not counted")
	}
}
