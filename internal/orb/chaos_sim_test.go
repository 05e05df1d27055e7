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
// simulated wire, and the client's endpoint wrapped in a fault injector
// running plan.
func startSimFaultyPair(t *testing.T, clientOpts Options, plan *simnet.FaultPlan) (snet *simnet.Net, client *ORB, ref *ObjectRef, faults *simnet.FaultTransport) {
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
	faults = simnet.NewFaultTransport(snet.Endpoint("cli"), plan)
	clientOpts.DisableColocation = true
	clientOpts.Transport = faults
	clientOpts.Product = VisiBroker
	client = New(clientOpts)
	t.Cleanup(client.Shutdown)
	return snet, client, client.Resolve(ior), faults
}

func TestChaosSimInjectedConnectFailure(t *testing.T) {
	_, _, ref, faults := startSimFaultyPair(t, Options{},
		&simnet.FaultPlan{Rules: []simnet.FaultRule{{FailConnect: 1}}})
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

func TestChaosSimRetryRecovers(t *testing.T) {
	_, client, ref, faults := startSimFaultyPair(t, Options{RetryAttempts: 4},
		&simnet.FaultPlan{Rules: []simnet.FaultRule{{FailFirst: 2}}})
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

	faults.SetPlan(&simnet.FaultPlan{Rules: []simnet.FaultRule{{FailFirst: 1}}})
	client.pool.closeAll()
	if _, err := ref.Invoke("echo", idl.String("x")); err == nil {
		t.Fatal("non-idempotent call retried through an injected dial failure")
	}
	if n := client.Stats.Retries.Load(); n != 2 {
		t.Errorf("non-idempotent call bumped Retries to %d", n)
	}
}

func TestChaosSimRetryAttemptsReported(t *testing.T) {
	_, _, ref, _ := startSimFaultyPair(t, Options{RetryAttempts: 3},
		&simnet.FaultPlan{Rules: []simnet.FaultRule{{FailFirst: 1}}})
	ctx, cs := WithCallStats(context.Background())
	if _, err := ref.InvokeIdempotent(ctx, "echo", idl.String("x")); err != nil {
		t.Fatal(err)
	}
	if n := cs.Attempts.Load(); n != 2 {
		t.Errorf("Attempts = %d, want 2 (one failed dial + one success)", n)
	}
}

func TestChaosSimDroppedRequestTimesOut(t *testing.T) {
	_, _, ref, faults := startSimFaultyPair(t, Options{CallTimeout: 60 * time.Millisecond},
		&simnet.FaultPlan{Rules: []simnet.FaultRule{{Drop: 1}}})
	_, err := ref.Invoke("echo", idl.String("dropped"))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcCommFailure || !strings.Contains(se.Detail, "timed out") {
		t.Fatalf("want timeout COMM_FAILURE, got %v", err)
	}
	if n := faults.Injected(); n == 0 {
		t.Error("drop not counted as an injected fault")
	}
}

// TestChaosSimResetAfterLosesTheReply: a ResetAfter rule closes the
// connection right after the request frame is out, so the servant runs and
// the caller only sees COMM_FAILURE. A plain call is not repeated; an
// idempotent one is, and every attempt runs the servant again — which is why
// only an operation that is safe to repeat may be retried.
func TestChaosSimResetAfterLosesTheReply(t *testing.T) {
	_, client, ref, faults := startSimFaultyPair(t, Options{RetryAttempts: 3},
		&simnet.FaultPlan{Rules: []simnet.FaultRule{{ResetAfter: 1}}})
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
	if n := faults.Injected(); n != 4 {
		t.Errorf("injected faults = %d, want 4", n)
	}
}

// TestChaosSimVirtualLatencyOffWallClock: the fault injector sleeps on its
// inner transport's clock, so two seconds of injected reply latency over an
// Endpoint resolve on the virtual clock, and the call succeeds in a fraction
// of that wall time while the simulated clock records the delay. (The
// socket flavour of this scenario, TestChaosDeadlineBoundsSlowEndpoint,
// needed a deadline to escape the real two-second stall.)
func TestChaosSimVirtualLatencyOffWallClock(t *testing.T) {
	snet, _, ref, _ := startSimFaultyPair(t, Options{},
		&simnet.FaultPlan{Rules: []simnet.FaultRule{{LatencyMS: 2000}}})
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
	snet, _, ref, _ := startSimFaultyPair(t, Options{}, nil)
	if _, err := ref.Invoke("echo", idl.String("warm")); err != nil {
		t.Fatal(err)
	}
	srvHost := simnet.HostOf(ref.IOR().Addr())
	cliHost := snet.Endpoint("cli").Host()
	snet.Partition(srvHost, cliHost)
	if _, err := ref.Invoke("echo", idl.String("x")); err == nil {
		t.Fatal("call across partition succeeded")
	}
	snet.Heal(srvHost, cliHost)
	if _, err := ref.Invoke("echo", idl.String("back")); err != nil {
		t.Fatalf("call after heal failed: %v", err)
	}
}

// TestChaosSimSetFaultPlanAffectsPooledConn is the regression test for the
// runtime fault-plan swap: a plan installed by SetPlan must govern
// connections already sitting in the pool, not just future dials. The first
// call pools a healthy connection; the swapped-in Drop rule must then
// swallow the next request frame on that same connection.
func TestChaosSimSetFaultPlanAffectsPooledConn(t *testing.T) {
	snet, _, ref, faults := startSimFaultyPair(t, Options{CallTimeout: 60 * time.Millisecond}, nil)
	if _, err := ref.Invoke("echo", idl.String("warm")); err != nil {
		t.Fatalf("warm-up call failed: %v", err)
	}
	dialsAfterWarmup := snet.Stats().Dials

	faults.SetPlan(&simnet.FaultPlan{Rules: []simnet.FaultRule{{Drop: 1}}})
	_, err := ref.Invoke("echo", idl.String("dropped"))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcCommFailure || !strings.Contains(se.Detail, "timed out") {
		t.Fatalf("pooled connection ignored the swapped-in plan: %v", err)
	}
	if snet.Stats().Dials != dialsAfterWarmup {
		t.Errorf("call dialed a fresh connection (%d -> %d dials); the drop must hit the pooled one",
			dialsAfterWarmup, snet.Stats().Dials)
	}
	if n := faults.Injected(); n == 0 {
		t.Error("drop on pooled connection not counted")
	}

	// Swapping the plan out again restores service (the timed-out call
	// poisoned its connection, so this dials afresh).
	faults.SetPlan(nil)
	if _, err := ref.Invoke("echo", idl.String("healed")); err != nil {
		t.Fatalf("call after plan removal failed: %v", err)
	}

	// And a latency rule swapped onto the new pooled connection delays the
	// very next reply, on the virtual clock: the demux loop's Read was
	// already blocked when the plan changed, and the reply it returns is
	// held for the rule's latency all the same.
	before := snet.Clock().Elapsed()
	faults.SetPlan(&simnet.FaultPlan{Rules: []simnet.FaultRule{{LatencyMS: 500}}})
	if _, err := ref.Invoke("echo", idl.String("slow")); err != nil {
		t.Fatalf("call under swapped-in latency failed: %v", err)
	}
	if d := snet.Clock().Elapsed() - before; d < 500*time.Millisecond {
		t.Fatalf("call returned after %v of virtual time, want >= 500ms of injected latency", d)
	}
}

// TestChaosSimFaultsActOnWholeMessages: the ORB writes through a 4 KiB
// buffer, so a large request leaves in several writes and queued requests
// share one. A fault rolled per write would deliver half a request or
// swallow the middle of one, and the server would read garbage. Rolled per
// message, ResetAfter delivers the whole request before it closes the
// connection, so the servant runs exactly once, and Drop swallows whole
// requests, so the server never sees a broken stream.
func TestChaosSimFaultsActOnWholeMessages(t *testing.T) {
	big := idl.String(strings.Repeat("x", 20000))

	t.Run("ResetAfter", func(t *testing.T) {
		_, _, ref, faults := startSimFaultyPair(t, Options{},
			&simnet.FaultPlan{Rules: []simnet.FaultRule{{ResetAfter: 1}}})
		v, _ := processORBs.Load(ref.Addr())
		server := v.(*ORB)
		if _, err := ref.Invoke("echo", big); err == nil {
			t.Fatal("call succeeded although its reply was lost")
		}
		for deadline := time.Now().Add(2 * time.Second); server.Stats.RequestsServed.Load() < 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("servant never ran; server protocol errors = %d", server.Stats.ProtocolErrors.Load())
			}
		}
		if n := server.Stats.RequestsServed.Load(); n != 1 {
			t.Errorf("servant ran %d times, want 1", n)
		}
		if n := server.Stats.ProtocolErrors.Load(); n != 0 {
			t.Errorf("server protocol errors = %d, want 0", n)
		}
		if n := faults.Injected(); n != 1 {
			t.Errorf("injected faults = %d, want 1", n)
		}
	})

	t.Run("Drop", func(t *testing.T) {
		_, _, ref, faults := startSimFaultyPair(t, Options{CallTimeout: 60 * time.Millisecond},
			&simnet.FaultPlan{Seed: 7, Rules: []simnet.FaultRule{{Drop: 0.5}}})
		v, _ := processORBs.Load(ref.Addr())
		server := v.(*ORB)
		req := idl.String(strings.Repeat("y", 6000))
		ok := 0
		for i := 0; i < 20; i++ {
			_, err := ref.Invoke("echo", req)
			if err == nil {
				ok++
				continue
			}
			// A lost request is only ever noticed by the deadline.
			if se, isSE := err.(*SystemException); !isSE || se.Name != ExcCommFailure || !strings.Contains(se.Detail, "timed out") {
				t.Errorf("call %d: want a timeout, got %v", i, err)
			}
		}
		if n := server.Stats.ProtocolErrors.Load(); n != 0 {
			t.Errorf("server protocol errors = %d, want 0", n)
		}
		if ok == 0 || faults.Injected() == 0 {
			t.Errorf("%d call(s) succeeded and %d dropped; the schedule tested nothing", ok, faults.Injected())
		}
	})
}

// TestChaosSimLatencyDelaysEachReplyOnce: LatencyMS holds each arriving
// message once. A call after idle time still waits the full latency (the
// idle reader has nothing to hold), and a reply long enough to need several
// reads is held once, not once per read.
func TestChaosSimLatencyDelaysEachReplyOnce(t *testing.T) {
	const lat = 200 * time.Millisecond
	snet, _, ref, _ := startSimFaultyPair(t, Options{},
		&simnet.FaultPlan{Rules: []simnet.FaultRule{{LatencyMS: int(lat / time.Millisecond)}}})
	roundTrip := func(arg idl.Any) time.Duration {
		t.Helper()
		before := snet.Clock().Elapsed()
		if _, err := ref.Invoke("echo", arg); err != nil {
			t.Fatal(err)
		}
		return snet.Clock().Elapsed() - before
	}
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond) // idle: the clock jumps meanwhile
		}
		if d := roundTrip(idl.String("x")); d < lat {
			t.Errorf("call %d after idle took %v of virtual time, want >= %v", i, d, lat)
		}
	}
	// Right after the last call, with the reader straight back at its socket.
	if d := roundTrip(idl.String(strings.Repeat("z", 20000))); d < lat || d >= 2*lat {
		t.Errorf("a 20000-byte echo took %v of virtual time, want [%v, %v)", d, lat, 2*lat)
	}
}
