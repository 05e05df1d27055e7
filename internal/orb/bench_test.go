package orb

import (
	"sync"
	"testing"

	"repro/internal/idl"
)

// BenchmarkInvokeIIOP times one small echo invocation across a loopback
// socket: one caller at a time ("serial"), and six callers sharing the one
// multiplexed connection ("parallel-6", the coordinator's member fan-out
// width), where ns/op is wall time per call with the six overlapping.
func BenchmarkInvokeIIOP(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		_, ref := startPair(b)
		arg := idl.String("ping")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ref.Invoke("echo", arg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-6", func(b *testing.B) {
		const callers = 6
		_, ref := startPair(b)
		arg := idl.String("ping")
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			n := b.N / callers
			if g < b.N%callers {
				n++
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := ref.Invoke("echo", arg); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkInvokeColocated times the same echo invocation when the servant
// lives in the caller's own ORB: the call is bridged in memory, with no socket
// and no GIOP framing. Set beside BenchmarkInvokeIIOP/serial it is the paper's
// split between an in-process invocation and one over IIOP.
func BenchmarkInvokeColocated(b *testing.B) {
	o := New(Options{Product: Orbix})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(o.Shutdown)
	ior, err := o.Activate("Echo", newEchoServant())
	if err != nil {
		b.Fatal(err)
	}
	ref := o.Resolve(ior)
	arg := idl.String("ping")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke("echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}
