package orb

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/giop"
	"repro/internal/idl"
)

// TestMultiplexedConcurrentInvokes fires 64 concurrent clients at one
// endpoint through a single multiplexed connection (MaxIdlePerHost: 1) and
// checks that every reply carries its own request's payload — i.e. the
// demux loop routes replies by GIOP request ID, never by arrival order.
// Run with -race, this is also the concurrency stress for the shared
// framing layer.
func TestMultiplexedConcurrentInvokes(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	iface := idl.MustParse("interface Echo { string echo(in string s); };")[0]
	// Overlap is made a fact, not a race: the first request waits inside the
	// servant until a second one is in there with it. Only a connection that
	// carries two requests at once lets either of them return.
	var inServant atomic.Int32
	var stalled atomic.Bool
	overlapped := make(chan struct{})
	h := NewHandler(iface).On("echo", func(args []idl.Any) (idl.Any, error) {
		if inServant.Add(1) == 2 {
			close(overlapped)
		}
		select {
		case <-overlapped:
		case <-time.After(10 * time.Second):
			stalled.Store(true)
		}
		return args[0], nil
	})
	ior, err := server.Activate("Echo", h)
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{Product: VisiBroker, DisableColocation: true, MaxIdlePerHost: 1})
	defer client.Shutdown()
	ref := client.Resolve(ior)

	const goroutines = 64
	const perG = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				want := fmt.Sprintf("payload-%d-%d", g, i)
				got, err := ref.Invoke("echo", idl.String(want))
				if err != nil {
					errs <- err
					return
				}
				if got.Str != want {
					errs <- fmt.Errorf("reply mismatch: got %q want %q", got.Str, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if stalled.Load() {
		t.Error("a request waited 10s in the servant without a second one arriving: the connection does not pipeline")
	}
	// All 256 calls shared one socket. A cold pool lets simultaneous first
	// calls each dial; the losers close their socket at once, but the server
	// only forgets it when its read loop sees the close — so wait for that.
	deadline := time.Now().Add(10 * time.Second)
	for server.Stats.ActiveConns.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := server.Stats.ActiveConns.Load(); n != 1 {
		t.Errorf("server sees %d connections, want 1 multiplexed", n)
	}
	// And they genuinely overlapped on it.
	if max := client.Stats.MaxInFlight.Load(); max < 2 {
		t.Errorf("MaxInFlight = %d, want pipelining (>= 2)", max)
	}
	if in := client.Stats.InFlight.Load(); in != 0 {
		t.Errorf("InFlight = %d after all calls returned", in)
	}
}

// TestMidStreamKillFailsInFlight kills the multiplexed connection while many
// requests are in flight: every one of them must fail with a typed
// COMM_FAILURE (no hang, no wrong-reply delivery), and the pool must not
// wedge — the next call dials a fresh connection and succeeds.
func TestMidStreamKillFailsInFlight(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	release := make(chan struct{})
	iface := idl.MustParse("interface Gate { string wait(in string s); };")[0]
	h := NewHandler(iface).On("wait", func(args []idl.Any) (idl.Any, error) {
		<-release
		return args[0], nil
	})
	ior, err := server.Activate("Gate", h)
	if err != nil {
		t.Fatal(err)
	}
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // unblock any parked servant goroutines at the end

	client := New(Options{Product: OrbixWeb, DisableColocation: true, MaxIdlePerHost: 1})
	defer client.Shutdown()
	ref := client.Resolve(ior)

	const inFlight = 16
	errCh := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func(i int) {
			_, err := ref.Invoke("wait", idl.String(fmt.Sprintf("blocked-%d", i)))
			errCh <- err
		}(i)
	}
	// Wait until the server has dispatched all of them (they are parked in
	// the servant), so the kill happens genuinely mid-stream.
	deadline := time.Now().Add(5 * time.Second)
	for server.Stats.RequestsServed.Load() < inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests dispatched", server.Stats.RequestsServed.Load(), inFlight)
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the client's multiplexed connection out from under the calls.
	client.pool.mu.Lock()
	var killed int
	for _, conns := range client.pool.conns {
		for _, c := range conns {
			c.nc.Close()
			killed++
		}
	}
	client.pool.mu.Unlock()
	if killed != 1 {
		t.Fatalf("killed %d connections, want exactly 1 multiplexed", killed)
	}

	for i := 0; i < inFlight; i++ {
		select {
		case err := <-errCh:
			se, ok := err.(*SystemException)
			if !ok || se.Name != ExcCommFailure {
				t.Errorf("in-flight call error = %v, want COMM_FAILURE", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still hung after connection kill", i)
		}
	}
	if in := client.Stats.InFlight.Load(); in != 0 {
		t.Errorf("InFlight = %d after kill", in)
	}

	// The pool is not wedged: a fresh call dials a new connection.
	unblock()
	got, err := ref.Invoke("wait", idl.String("after kill"))
	if err != nil || got.Str != "after kill" {
		t.Errorf("post-kill call = %v, %v", got, err)
	}
}

// TestTimeoutReplyRace hammers the window where a reply arrives concurrently
// with CallTimeout expiry: servant latencies straddle the timeout, so some
// replies race the timer into deliver while fail is flushing the pending
// map. Every call must end as either a genuine result or a typed
// *SystemException — the race formerly produced a (nil, nil) demuxed reply
// that panicked decodeReply.
func TestTimeoutReplyRace(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	const timeout = 10 * time.Millisecond
	iface := idl.MustParse("interface Edge { string echo(in string s); };")[0]
	h := NewHandler(iface).On("echo", func(args []idl.Any) (idl.Any, error) {
		// Latency straddles the client timeout so replies race the timer.
		var n int
		fmt.Sscanf(args[0].Str, "p-%d", &n)
		time.Sleep(timeout - 3*time.Millisecond + time.Duration(n%7)*time.Millisecond)
		return args[0], nil
	})
	ior, err := server.Activate("Edge", h)
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{Product: VisiBroker, DisableColocation: true,
		CallTimeout: timeout, MaxIdlePerHost: 1})
	defer client.Shutdown()
	ref := client.Resolve(ior)

	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("p-%d", i)
			got, err := ref.Invoke("echo", idl.String(want))
			if err == nil {
				if got.Str != want {
					errs <- fmt.Errorf("call %d: reply mismatch %q", i, got.Str)
				}
				return
			}
			if _, ok := err.(*SystemException); !ok {
				errs <- fmt.Errorf("call %d: untyped error %T: %v", i, err, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if in := client.Stats.InFlight.Load(); in != 0 {
		t.Errorf("InFlight = %d after all calls settled", in)
	}
}

// newRaceHarnessConn builds a muxConn with a live socket pair but no read
// loop, so a test can play deliver and fail against a registered call in a
// chosen order.
func newRaceHarnessConn(t *testing.T, client *ORB) *muxConn {
	t.Helper()
	srv, cli := net.Pipe()
	go io.Copy(io.Discard, srv)
	t.Cleanup(func() { srv.Close() })
	c := &muxConn{
		pool:    client.pool,
		addr:    "race-harness",
		nc:      cli,
		pending: make(map[uint32]chan *demuxedReply),
	}
	c.w = giop.NewSyncWriter(bufio.NewWriter(cli), func(err error) {
		c.fail(&SystemException{Name: ExcCommFailure, Detail: err.Error()})
	})
	return c
}

// TestCallTimeoutDeliverRace stages, deterministically, both orderings of
// the race between a reply's deliver and the timeout branch's fail. When
// deliver wins — it removes the pending entry before fail can flush it, so
// the caller drains a reply with err == nil — the call must surface the
// reply as a late success, never (nil, nil), which panicked the decode path.
func TestCallTimeoutDeliverRace(t *testing.T) {
	client := New(Options{Product: VisiBroker, DisableColocation: true})
	defer client.Shutdown()
	timeoutExc := &SystemException{Name: ExcCommFailure, Detail: "call timed out"}

	// Ordering 1: deliver wins the race, then the timeout branch runs.
	c := newRaceHarnessConn(t, client)
	ch, err := c.register(1)
	if err != nil {
		t.Fatal(err)
	}
	c.deliver(1, &demuxedReply{rh: &giop.ReplyHeader{RequestID: 1}})
	c.fail(timeoutExc) // pending[1] is already gone; nothing to flush
	r, err := drainTimedOut(ch)
	if err != nil {
		t.Fatalf("deliver-wins drain returned error %v, want late success", err)
	}
	if r == nil || r.rh == nil || r.rh.RequestID != 1 {
		t.Fatalf("deliver-wins drain returned %+v, want the raced reply", r)
	}

	// Ordering 2: fail wins; the drained reply carries the timeout error.
	c = newRaceHarnessConn(t, client)
	if ch, err = c.register(2); err != nil {
		t.Fatal(err)
	}
	c.fail(timeoutExc)
	c.deliver(2, &demuxedReply{rh: &giop.ReplyHeader{RequestID: 2}}) // late, dropped
	r, err = drainTimedOut(ch)
	if r != nil {
		t.Fatalf("fail-wins drain returned reply %+v, want nil", r)
	}
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcCommFailure {
		t.Fatalf("fail-wins drain returned %v, want COMM_FAILURE", err)
	}
}

// TestLocateAccountsWireStats checks the satellite fix: LocateRequest round
// trips count into BytesSent/BytesReceived like invocations do.
func TestLocateAccountsWireStats(t *testing.T) {
	client, ref := startPair(t)
	before := client.Stats.BytesSent.Load()
	beforeRecv := client.Stats.BytesReceived.Load()
	if _, err := ref.Locate(); err != nil {
		t.Fatal(err)
	}
	if sent := client.Stats.BytesSent.Load(); sent <= before {
		t.Errorf("BytesSent unchanged by locate (%d)", sent)
	}
	if recv := client.Stats.BytesReceived.Load(); recv <= beforeRecv {
		t.Errorf("BytesReceived unchanged by locate (%d)", recv)
	}
}

// TestServerConcurrentDispatch proves the server no longer serializes
// requests per connection: two pipelined requests where the first is slow
// must complete in roughly the slow request's time, not the sum.
func TestServerConcurrentDispatch(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	iface := idl.MustParse("interface Slow { string sleep(in string d); };")[0]
	h := NewHandler(iface).On("sleep", func(args []idl.Any) (idl.Any, error) {
		d, _ := time.ParseDuration(args[0].Str)
		time.Sleep(d)
		return args[0], nil
	})
	ior, err := server.Activate("Slow", h)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Product: VisiBroker, DisableColocation: true, MaxIdlePerHost: 1})
	defer client.Shutdown()
	ref := client.Resolve(ior)

	const n = 8
	const each = 100 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ref.Invoke("sleep", idl.String(each.String())); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Serial dispatch would need n*each = 800ms; concurrent dispatch on one
	// connection should track the slowest request. Allow generous slack for
	// loaded CI machines while still ruling out serialization.
	if elapsed > n*each/2 {
		t.Errorf("8 pipelined 100ms calls took %v; server appears to serialize per connection", elapsed)
	}
	if conns := server.Stats.ActiveConns.Load(); conns != 1 {
		t.Errorf("used %d connections, want 1", conns)
	}
}
