package orb

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/giop"
	"repro/internal/idl"
)

// overThreshold is a body length the ORB always fragments: past
// giop.DefaultFragmentThreshold, by n bytes.
func overThreshold(n int) int { return giop.DefaultFragmentThreshold + n }

// startFragPair boots a server/client ORB pair over real sockets.
func startFragPair(t *testing.T) (client *ORB, ref *ObjectRef) {
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
	client = New(Options{Product: VisiBroker, DisableColocation: true})
	t.Cleanup(client.Shutdown)
	return client, client.Resolve(ior)
}

// TestFragmentedRoundTrip pushes a payload far above the threshold both ways
// (big request argument, big echoed reply) and checks it survives the
// fragmented wire intact, with fragment counters moving on both sides.
func TestFragmentedRoundTrip(t *testing.T) {
	client, ref := startFragPair(t)
	payload := strings.Repeat("webfindit/", overThreshold(300<<10)/10) // ~556 KiB, 3 frames each way
	got, err := ref.Invoke("echo", idl.String(payload))
	if err != nil {
		t.Fatal(err)
	}
	if got.Str != payload {
		t.Fatalf("fragmented echo corrupted: %d bytes back, want %d", len(got.Str), len(payload))
	}
	if n := client.Stats.FragmentsSent.Load(); n == 0 {
		t.Error("client sent no fragments for an oversized request")
	}
	if n := client.Stats.FragmentsReassembled.Load(); n == 0 {
		t.Error("client reassembled no fragments for an oversized reply")
	}
}

// TestFragmentedInterleavedCalls runs many concurrent calls, large and
// small, over the shared mux: every large request and reply is fragmented,
// and the demux must route interleaved fragments of different request IDs
// without mixing them up.
func TestFragmentedInterleavedCalls(t *testing.T) {
	_, ref := startFragPair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var payload string
			if i%4 == 0 {
				payload = strings.Repeat(string(rune('a'+i%26)), overThreshold(1000+i*37))
			} else {
				payload = "small"
			}
			got, err := ref.InvokeCtx(context.Background(), "echo", idl.String(payload))
			if err != nil {
				errs <- err
				return
			}
			if got.Str != payload {
				errs <- &SystemException{Name: ExcMarshal,
					Detail: "interleaved fragmented reply corrupted"}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFragmentedExceptionReply exercises fragmentation of non-NoException
// replies: a user exception whose message exceeds the threshold.
func TestFragmentedExceptionReply(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	h := NewHandler(echoIDL)
	h.On("fail", func(args []idl.Any) (idl.Any, error) {
		return idl.Null(), &UserException{Name: "Big", Message: strings.Repeat("why ", overThreshold(0)/4+1)}
	})
	ior, err := server.Activate("Echo", h)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Product: VisiBroker, DisableColocation: true})
	t.Cleanup(client.Shutdown)
	_, err = client.Resolve(ior).Invoke("fail", idl.String("user"))
	ue, ok := err.(*UserException)
	if !ok {
		t.Fatalf("err = %T %v, want *UserException", err, err)
	}
	if want := 4 * (overThreshold(0)/4 + 1); ue.Name != "Big" || len(ue.Message) != want {
		t.Errorf("fragmented exception = %q / %d bytes", ue.Name, len(ue.Message))
	}
	if client.Stats.FragmentsReassembled.Load() == 0 {
		t.Error("exception reply was not fragmented")
	}
}
