package orb

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/idl"
)

// goroutineID parses the running goroutine's ID out of its stack header
// ("goroutine 123 [running]:"); tests use it to tell dispatch goroutines apart.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// liveGoroutines returns the IDs of every goroutine that exists right now.
func liveGoroutines() map[uint64]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	live := map[uint64]bool{}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("goroutine ")); ok {
			if i := bytes.IndexByte(rest, ' '); i > 0 {
				id, _ := strconv.ParseUint(string(rest[:i]), 10, 64)
				live[id] = true
			}
		}
	}
	return live
}

// TestDispatchWorkersBounded checks the server's per-connection dispatch
// workers: 10 000 sequential requests and then 64 pipelined callers on one
// connection are served by at most maxPipelinePerConn goroutines in all —
// not one per request — and every one of them exits on Shutdown.
func TestDispatchWorkersBounded(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	var mu sync.Mutex
	ran := map[uint64]int{}
	h := NewHandler(echoIDL).On("echo", func(args []idl.Any) (idl.Any, error) {
		id := goroutineID()
		mu.Lock()
		ran[id]++
		mu.Unlock()
		return args[0], nil
	})
	ior, err := server.Activate("Echo", h)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Product: VisiBroker, DisableColocation: true, MaxIdlePerHost: 1})
	defer client.Shutdown()
	ref := client.Resolve(ior)

	for i := 0; i < 10000; i++ {
		if _, err := ref.Invoke("echo", idl.String("seq")); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	sequential := len(ran)
	mu.Unlock()
	if sequential > maxPipelinePerConn {
		t.Errorf("10000 sequential requests ran on %d goroutines, want <= %d", sequential, maxPipelinePerConn)
	}

	const callers, perCaller = 64, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := ref.Invoke("echo", idl.String("pipelined")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := server.Stats.ActiveConns.Load(); n != 1 {
		t.Fatalf("server sees %d connections, want the one multiplexed connection", n)
	}
	mu.Lock()
	workers := len(ran)
	served := 0
	for _, n := range ran {
		served += n
	}
	mu.Unlock()
	if served != 10000+callers*perCaller {
		t.Fatalf("servant ran %d requests, want %d", served, 10000+callers*perCaller)
	}
	if workers > maxPipelinePerConn {
		t.Errorf("%d requests ran on %d goroutines, want <= %d", served, workers, maxPipelinePerConn)
	}
	t.Logf("%d requests (%d sequential) on %d dispatch goroutine(s); %d served the sequential run",
		served, 10000, workers, sequential)

	client.Shutdown()
	server.Shutdown()
	// Shutdown has joined every worker; a worker's wg.Done is its last act,
	// so allow the instant between it and the goroutine being gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := liveGoroutines()
		var left []uint64
		for id := range ran {
			if live[id] {
				left = append(left, id)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatch goroutine(s) %v outlived Shutdown", left)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatchSerialCallerOneWorker: a caller that waits for each reply
// before its next request is served by one dispatch worker. The worker gives
// its slot back before its reply goes out, so the next request finds the
// workers outnumbering the slots taken and waits for it; when the slot was
// held past the write, 1 000 serial calls started a second worker.
func TestDispatchSerialCallerOneWorker(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	var mu sync.Mutex
	ran := map[uint64]int{}
	h := NewHandler(echoIDL).On("echo", func(args []idl.Any) (idl.Any, error) {
		id := goroutineID()
		mu.Lock()
		ran[id]++
		mu.Unlock()
		return args[0], nil
	})
	ior, err := server.Activate("Echo", h)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Product: VisiBroker, DisableColocation: true})
	defer client.Shutdown()
	ref := client.Resolve(ior)
	for i := 0; i < 1000; i++ {
		if _, err := ref.Invoke("echo", idl.String("serial")); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 {
		t.Errorf("1000 serial calls ran on %d dispatch workers, want 1: %v", len(ran), ran)
	}
}

// TestMuxFailLeavesPoolBeforeDead pins the order inside muxConn.fail: the
// connection leaves the pool before it turns dead. The other order let a
// call made after the network healed pick the dead connection on both of
// roundTrip's attempts and fail with the old error.
func TestMuxFailLeavesPoolBeforeDead(t *testing.T) {
	client, ref := startPair(t)
	if _, err := ref.Invoke("echo", idl.String("warm")); err != nil {
		t.Fatal(err)
	}
	client.pool.mu.Lock()
	conns := client.pool.conns[ref.IOR().Addr()]
	if len(conns) != 1 {
		client.pool.mu.Unlock()
		t.Fatalf("pool holds %d connections, want 1", len(conns))
	}
	c := conns[0]
	failed := make(chan struct{})
	go func() {
		c.fail(&SystemException{Name: ExcCommFailure, Detail: "test"})
		close(failed)
	}()
	// fail cannot take the pool lock yet; give it the time to get that far.
	time.Sleep(20 * time.Millisecond)
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	client.pool.mu.Unlock()
	<-failed
	if dead != nil {
		t.Fatal("connection turned dead while the pool could still hand it out")
	}
	if _, err := ref.Invoke("echo", idl.String("after")); err != nil {
		t.Fatalf("call after the failure: %v", err)
	}
}
