package orb

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/idl"
	"repro/internal/simnet"
)

// This file is the chaos suite running over internal/simnet: the same
// acceptance scenarios as the socket-based smoke copy in chaos_test.go, but
// in-memory, deterministic, and with injected latency on the virtual clock.
// Test names keep the Chaos prefix so `make chaos` runs both flavours.

// startSimFaultyPair is startFaultyPair over simnet: a server and a client
// ORB on two simulated hosts, colocation disabled so every call crosses the
// simulated wire.
func startSimFaultyPair(t *testing.T, clientOpts Options) (snet *simnet.Net, client *ORB, ref *ObjectRef) {
	t.Helper()
	snet = simnet.New(1)
	t.Cleanup(snet.Close)
	server := New(Options{Product: Orbix, DisableColocation: true, Transport: snet.Endpoint("srv")})
	if err := server.Listen(":0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	ior, err := server.Activate("Echo", newEchoServant())
	if err != nil {
		t.Fatal(err)
	}
	clientOpts.DisableColocation = true
	clientOpts.Transport = snet.Endpoint("cli")
	if clientOpts.Product == "" {
		clientOpts.Product = VisiBroker
	}
	client = New(clientOpts)
	t.Cleanup(client.Shutdown)
	return snet, client, client.Resolve(ior)
}

func TestChaosSimInjectedConnectFailure(t *testing.T) {
	_, client, ref := startSimFaultyPair(t, Options{
		Faults: &FaultPlan{Rules: []FaultRule{{FailConnect: 1}}},
	})
	_, err := ref.Invoke("echo", idl.String("x"))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcCommFailure {
		t.Fatalf("want injected COMM_FAILURE, got %v", err)
	}
	if !strings.Contains(se.Detail, "injected connect failure") {
		t.Errorf("detail = %q", se.Detail)
	}
	if n := client.Stats.FaultsInjected.Load(); n == 0 {
		t.Error("FaultsInjected not counted")
	}
}

func TestChaosSimRetryRecovers(t *testing.T) {
	_, client, ref := startSimFaultyPair(t, Options{
		Faults:        &FaultPlan{Rules: []FaultRule{{FailFirst: 2}}},
		RetryAttempts: 4,
	})
	got, err := ref.InvokeIdempotent(context.Background(), "echo", idl.String("retried"))
	if err != nil {
		t.Fatalf("idempotent call did not recover: %v", err)
	}
	if got.Str != "retried" {
		t.Errorf("echo = %s", got)
	}
	if n := client.Stats.Retries.Load(); n != 2 {
		t.Errorf("Retries = %d, want 2", n)
	}

	client.SetFaultPlan(&FaultPlan{Rules: []FaultRule{{FailFirst: 1}}})
	client.pool.closeAll()
	if _, err := ref.Invoke("echo", idl.String("x")); err == nil {
		t.Fatal("non-idempotent call retried through an injected dial failure")
	}
	if n := client.Stats.Retries.Load(); n != 2 {
		t.Errorf("non-idempotent call bumped Retries to %d", n)
	}
}

func TestChaosSimRetryAttemptsReported(t *testing.T) {
	_, _, ref := startSimFaultyPair(t, Options{
		Faults:        &FaultPlan{Rules: []FaultRule{{FailFirst: 1}}},
		RetryAttempts: 3,
	})
	ctx, cs := WithCallStats(context.Background())
	if _, err := ref.InvokeIdempotent(ctx, "echo", idl.String("x")); err != nil {
		t.Fatal(err)
	}
	if n := cs.Attempts.Load(); n != 2 {
		t.Errorf("Attempts = %d, want 2 (one failed dial + one success)", n)
	}
}

func TestChaosSimDroppedRequestTimesOut(t *testing.T) {
	_, client, ref := startSimFaultyPair(t, Options{
		Faults:      &FaultPlan{Rules: []FaultRule{{Drop: 1}}},
		CallTimeout: 60 * time.Millisecond,
	})
	_, err := ref.Invoke("echo", idl.String("dropped"))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcCommFailure || !strings.Contains(se.Detail, "timed out") {
		t.Fatalf("want timeout COMM_FAILURE, got %v", err)
	}
	if n := client.Stats.FaultsInjected.Load(); n == 0 {
		t.Error("drop not counted as an injected fault")
	}
}

// TestChaosSimResetAfterLosesTheReply: a ResetAfter rule closes the
// connection right after the request frame is out, so the servant runs and
// the caller only sees COMM_FAILURE. A plain call is not repeated; an
// idempotent one is, and every attempt runs the servant again — which is why
// only an operation that is safe to repeat may be retried.
func TestChaosSimResetAfterLosesTheReply(t *testing.T) {
	_, client, ref := startSimFaultyPair(t, Options{
		Faults:        &FaultPlan{Rules: []FaultRule{{ResetAfter: 1}}},
		RetryAttempts: 3,
	})
	v, _ := processORBs.Load(ref.Addr())
	server := v.(*ORB)
	// The caller hears of the lost reply as soon as the socket closes, while
	// the servant may still be dispatching: wait for it to have run n times.
	servedTimes := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); server.Stats.RequestsServed.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("servant ran %d times, want %d", server.Stats.RequestsServed.Load(), n)
			}
		}
	}

	_, err := ref.Invoke("echo", idl.String("lost"))
	if se, ok := err.(*SystemException); !ok || se.Name != ExcCommFailure {
		t.Fatalf("want COMM_FAILURE for a lost reply, got %v", err)
	}
	servedTimes(1)
	if _, err := ref.InvokeIdempotent(context.Background(), "echo", idl.String("lost")); err == nil {
		t.Fatal("idempotent call succeeded although every reply was lost")
	}
	servedTimes(4) // one plain call + three attempts
	if n := server.Stats.RequestsServed.Load(); n != 4 {
		t.Errorf("servant ran %d times, want 4", n)
	}
	if n := client.Stats.Retries.Load(); n != 2 {
		t.Errorf("Retries = %d, want 2", n)
	}
	if n := client.Stats.FaultsInjected.Load(); n != 4 {
		t.Errorf("FaultsInjected = %d, want 4", n)
	}
}

// TestChaosSimVirtualLatencyOffWallClock is the Sleeper-seam proof: two
// seconds of injected reply latency resolve on the virtual clock, so the
// call succeeds in a fraction of that wall time while the simulated clock
// records the delay. (The socket flavour of this scenario,
// TestChaosDeadlineBoundsSlowEndpoint, needed a deadline to escape the real
// two-second stall.)
func TestChaosSimVirtualLatencyOffWallClock(t *testing.T) {
	snet, _, ref := startSimFaultyPair(t, Options{
		Faults: &FaultPlan{Rules: []FaultRule{{LatencyMS: 2000}}},
	})
	start := time.Now()
	got, err := ref.Invoke("echo", idl.String("slow"))
	if err != nil {
		t.Fatalf("call through virtual latency failed: %v", err)
	}
	if got.Str != "slow" {
		t.Errorf("echo = %s", got)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Errorf("virtual latency burned %v of wall time", wall)
	}
	if el := snet.Clock().Elapsed(); el < 2*time.Second {
		t.Errorf("virtual clock advanced only %v, want >= 2s", el)
	}
}

// TestChaosSimPartitionFailsFast proves a simnet partition both resets the
// live pooled connection (failing the in-flight/next call) and refuses new
// dials, then heals cleanly.
func TestChaosSimPartitionFailsFast(t *testing.T) {
	snet, client, ref := startSimFaultyPair(t, Options{})
	if _, err := ref.Invoke("echo", idl.String("warm")); err != nil {
		t.Fatal(err)
	}
	srvHost := simnet.HostOf(ref.IOR().Addr())
	cliHost := cliHostOf(client)
	snet.Partition(srvHost, cliHost)
	if _, err := ref.Invoke("echo", idl.String("x")); err == nil {
		t.Fatal("call across partition succeeded")
	}
	snet.Heal(srvHost, cliHost)
	if _, err := ref.Invoke("echo", idl.String("back")); err != nil {
		t.Fatalf("call after heal failed: %v", err)
	}
}

// cliHostOf recovers the simulated host of a client-only ORB (no listener,
// so no Addr) from the transport it was built with.
func cliHostOf(client *ORB) string {
	if ep, ok := client.transport.(*simnet.Endpoint); ok {
		return ep.Host()
	}
	return ""
}

// TestChaosSimSetFaultPlanAffectsPooledConn is the regression test for the
// runtime fault-plan swap: a plan installed by SetFaultPlan must govern
// connections already sitting in the pool, not just future dials. The first
// call pools a healthy connection; the swapped-in Drop rule must then
// swallow the next request frame on that same connection.
func TestChaosSimSetFaultPlanAffectsPooledConn(t *testing.T) {
	snet, client, ref := startSimFaultyPair(t, Options{
		CallTimeout: 60 * time.Millisecond,
	})
	if _, err := ref.Invoke("echo", idl.String("warm")); err != nil {
		t.Fatalf("warm-up call failed: %v", err)
	}
	dialsAfterWarmup := snet.Stats().Dials

	client.SetFaultPlan(&FaultPlan{Rules: []FaultRule{{Drop: 1}}})
	_, err := ref.Invoke("echo", idl.String("dropped"))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcCommFailure || !strings.Contains(se.Detail, "timed out") {
		t.Fatalf("pooled connection ignored the swapped-in plan: %v", err)
	}
	if snet.Stats().Dials != dialsAfterWarmup {
		t.Errorf("call dialed a fresh connection (%d -> %d dials); the drop must hit the pooled one",
			dialsAfterWarmup, snet.Stats().Dials)
	}
	if n := client.Stats.FaultsInjected.Load(); n == 0 {
		t.Error("drop on pooled connection not counted")
	}

	// Swapping the plan out again restores service (the timed-out call
	// poisoned its connection, so this dials afresh).
	client.SetFaultPlan(nil)
	if _, err := ref.Invoke("echo", idl.String("healed")); err != nil {
		t.Fatalf("call after plan removal failed: %v", err)
	}

	// And a latency rule swapped onto the new pooled connection takes
	// effect too, on the virtual clock. The demux loop's in-progress Read
	// predates the swap, so the sleep lands on its next read cycle — poll
	// briefly for the virtual clock to show it.
	before := snet.Clock().Elapsed()
	client.SetFaultPlan(&FaultPlan{Rules: []FaultRule{{LatencyMS: 500}}})
	if _, err := ref.Invoke("echo", idl.String("slow")); err != nil {
		t.Fatalf("call under swapped-in latency failed: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for snet.Clock().Elapsed()-before < 500*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("virtual clock advanced only %v, want >= 500ms of injected latency",
				snet.Clock().Elapsed()-before)
		}
		time.Sleep(time.Millisecond)
	}
}
