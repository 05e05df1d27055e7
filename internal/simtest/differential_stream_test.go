package simtest

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/query"
)

// The differential streaming suite: the same heterogeneous federation is
// built twice from the same seed — once with the member cursor protocol on
// (coalition sub-queries page through server-side cursors), once with it off
// (whole results in one round trip) — and both run an identical workload.
// The transport may only change how rows cross the wire, never the answer:
// rows, columns, the Partial flag and per-member error classes must match
// exactly, including under a mid-stream member death and a top-K early
// termination that cancels open cursors.

// buildStreamFed builds one half of a streaming differential pair. A small
// merge window forces multi-fetch cursor traffic even on the small fixture.
func buildStreamFed(t *testing.T, seed int64, disableStreaming bool) *Fed {
	t.Helper()
	return buildModeFed(t, seed, func(p *query.Processor) {
		p.SetStreaming(!disableStreaming)
		p.SetMergeWindow(2)
	})
}

// noCursorsLeaked asserts every node's servants released their cursors and
// the rows they held (the cursors-released invariant) and every cursor page
// is back in the pool (live is gateway.LiveBatches() from before the
// federations ran; a servant may still be unwinding a call its client gave
// up on, hence the short wait).
func noCursorsLeaked(t *testing.T, fed *Fed, live int64, when string, seed int64) {
	t.Helper()
	checkCursorsReleased(fed, func(inv, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s: %s\n%s", when, inv, fmt.Sprintf(format, args...), ReplayLine(seed))
	})
	for deadline := time.Now().Add(2 * time.Second); gateway.LiveBatches() != live; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d cursor page(s) out of the pool\n%s", when, gateway.LiveBatches()-live, ReplayLine(seed))
		}
	}
}

// TestDifferentialStreaming runs the workload over the seed matrix, healthy
// and under a partition, and requires byte-identical outcomes from both
// transports — while proving the streamed half actually paged through
// cursors and left none open.
func TestDifferentialStreaming(t *testing.T) {
	for _, seed := range seedsUnderTest() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			live := gateway.LiveBatches()
			on := buildStreamFed(t, seed, false)
			defer on.Close()
			off := buildStreamFed(t, seed, true)
			defer off.Close()

			ctx := context.Background()
			runBoth := func(stmt string) (*query.Response, *query.Response) {
				t.Helper()
				ron, err := on.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("streaming-on %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				roff, err := off.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("streaming-off %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				if a, b := outcomeOf(ron), outcomeOf(roff); a != b {
					t.Fatalf("transports diverge on %q:\n  cursor      : %+v\n  materialized: %+v\n%s",
						stmt, a, b, ReplayLine(seed))
				}
				// Drained, cut short by a Limit or broken by the partition,
				// every statement closes what it opened before it returns.
				noCursorsLeaked(t, on, live, "after "+stmt, seed)
				noCursorsLeaked(t, off, live, "after "+stmt, seed)
				return ron, roff
			}

			for _, stmt := range diffWorkload {
				runBoth(stmt)
			}

			// Mid-stream member death: the link to a member dies while the
			// coalition scan is in flight. Both transports must agree on the
			// degraded accounting — the unreachable member reports "comm" and
			// the result is Partial.
			on.Partition(0, 2)
			off.Partition(0, 2)
			ron, _ := runBoth(diffWorkload[0])
			found := false
			for _, m := range ron.Members {
				if m.Member == "N2" && m.ErrClass == "comm" {
					found = true
				}
			}
			if !found || !ron.Partial {
				t.Fatalf("partitioned member not accounted: partial=%v members=%+v\n%s",
					ron.Partial, ron.Members, ReplayLine(seed))
			}
			on.HealAll()
			off.HealAll()

			// The equivalence must not be vacuous: the streaming half held
			// real server-side cursors open across fetches (the 2-row window
			// forces paging), the materialized half never retained one —
			// batch-0 whole-result opens keep no server state.
			var openedOn, openedOff int64
			for _, n := range on.Nodes {
				openedOn += n.Core.CursorStats().Opened
			}
			for _, n := range off.Nodes {
				openedOff += n.Core.CursorStats().Opened
			}
			if openedOn == 0 {
				t.Fatalf("streaming-on federation never paged through a cursor\n%s", ReplayLine(seed))
			}
			if openedOff != 0 {
				t.Fatalf("streaming-off federation retained %d cursor(s)\n%s", openedOff, ReplayLine(seed))
			}
		})
	}
}

// TestStreamingTopKClosesCursors pins the cancellation contract: a satisfied
// LIMIT abandons the remaining members' cursors mid-scan, and the merge must
// close every one of them on its way out.
func TestStreamingTopKClosesCursors(t *testing.T) {
	seed := int64(11)
	if s := ReplaySeed(); s != 0 {
		seed = s
	}
	live := gateway.LiveBatches()
	fed := buildStreamFed(t, seed, false)
	defer fed.Close()
	ctx := context.Background()

	topK, err := fed.Nodes[0].Session.Execute(ctx, `V(R.K) On Coalition `+BaseCoalition+` Limit 3;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topK.Result.Rows); got != 3 {
		t.Fatalf("Limit 3 returned %d rows", got)
	}
	if topK.Partial {
		t.Fatalf("limit-satisfied query flagged partial: %+v", topK.Members)
	}
	noCursorsLeaked(t, fed, live, "after top-K", seed)

	// And the pull contract moved fewer rows than a full scan: the limit
	// stopped the fan-out before the later members were drained.
	full, err := fed.Nodes[0].Session.Execute(ctx, `V(R.K) On Coalition `+BaseCoalition+`;`)
	if err != nil {
		t.Fatal(err)
	}
	if topK.RowsMoved >= full.RowsMoved {
		t.Fatalf("top-K moved %d rows, full scan moved %d — cancellation bought nothing",
			topK.RowsMoved, full.RowsMoved)
	}
}
