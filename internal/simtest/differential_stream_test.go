package simtest

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cursor"
	"repro/internal/gateway"
	"repro/internal/orb"
	"repro/internal/query"
	"repro/internal/simnet"
)

// The differential streaming suite: the same heterogeneous federation is
// built twice from the same seed — once with the member cursor protocol on
// (coalition sub-queries page through server-side cursors), once with it off
// (whole results in one round trip) — and both run an identical workload.
// The transport may only change how rows cross the wire, never the answer:
// rows, columns, the Partial flag and per-member error classes must match
// exactly, including under a mid-stream member death and a top-K early
// termination that cancels open cursors. TestDifferentialStreamingRetry runs
// the workload with retries on while the replies to a share of the requests
// to one member are lost after the member received them: it must answer as
// the healthy run did, or say the answer is partial.

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

// lossyRows is the per-node row count of the retry schedule: enough that a
// member's answer spans several fetches (pages of 2, 4, 8, 16, 32 and the
// last 34, which fit in twice the 64-row page due), so a lost reply can fall
// in the middle of a stream, and enough requests reach N2 that every seed
// also loses the reply to a call that is retried.
const lossyRows = 96

// TestDifferentialStreamingRetry is the streaming suite's retry schedule.
// One federation per seed, with idempotent calls retried once, runs the
// workload healthy and then twice more with node 0 losing the reply to about
// a third of its requests to N2 after N2 has received them
// (simnet.FaultRule.ResetAfter). A retried open_cursor answers the same first
// page, so it costs nothing; fetch_cursor names no page and is never retried,
// so a lost fetch reply drops N2 by provenance and the answer is partial.
// Either way no statement comes back silently short. The one thing a lost
// open reply leaves behind is the cursor it opened, which no client knows
// of: at most one per lost reply, and the idle reaper collects it.
func TestDifferentialStreamingRetry(t *testing.T) {
	for _, seed := range seedsUnderTest() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runLossy(t, seed) })
	}
}

func runLossy(t *testing.T, seed int64) {
	live := gateway.LiveBatches()
	fed, err := Build(Config{Seed: seed, Hetero: true, RowsPerNode: lossyRows, ORB: orb.Options{RetryAttempts: 2}})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, ReplayLine(seed))
	}
	defer fed.Close()
	fed.eachProcessor(func(p *query.Processor) { p.SetMergeWindow(2) })
	ctx := context.Background()
	healthy := map[string]diffOutcome{}
	for _, stmt := range diffWorkload {
		resp, err := fed.Nodes[0].Session.Execute(ctx, stmt)
		if err != nil {
			t.Fatalf("healthy %q: %v\n%s", stmt, err, ReplayLine(seed))
		}
		healthy[stmt] = outcomeOf(resp)
	}

	home := fed.Nodes[0].ORB
	faults := fed.Nodes[0].Faults
	faults.SetPlan(&simnet.FaultPlan{Seed: seed, Rules: []simnet.FaultRule{
		{Addr: fed.Nodes[2].ORB.Addr(), ResetAfter: 0.3},
	}})
	// Twice over, so lost replies land on more pages of more statements.
	lossy := append(append([]string(nil), diffWorkload...), diffWorkload...)
	partial := 0
	// reapAll sweeps every idle cursor and reports how many cursors are open
	// and how many the reaper has taken so far. Each statement closes every
	// cursor it knows of, so all of them are orphans of lost open replies;
	// an open can still be running on its server after its statement
	// returned, which is why orphans are bounded by the lost replies of the
	// whole run, not of one statement.
	reapAll := func() (open int, reaped int64) {
		fed.Clock.Advance(cursor.DefaultIdleTTL + time.Second)
		for _, n := range fed.Nodes {
			st := n.Core.CursorStats()
			open, reaped = open+st.Open, reaped+st.Reaped
			n.Core.ISICursors().Reap()
		}
		return open, reaped
	}
	for _, stmt := range lossy {
		resp, err := fed.Nodes[0].Session.Execute(ctx, stmt)
		if err != nil {
			t.Fatalf("lossy %q: %v\n%s", stmt, err, ReplayLine(seed))
		}
		if resp.Partial {
			partial++
		}
		if got := outcomeOf(resp); !resp.Partial && got != healthy[stmt] {
			t.Fatalf("lost replies changed a complete answer to %q:\n  lossy  : %+v\n  healthy: %+v\n%s",
				stmt, got, healthy[stmt], ReplayLine(seed))
		}
		for _, m := range resp.Members {
			if m.Member != "N2" && !m.OK() && m.ErrClass != "limit" {
				t.Fatalf("lossy %q: healthy member %s failed: %+v\n%s", stmt, m.Member, m, ReplayLine(seed))
			}
		}
		if open, reaped := reapAll(); int64(open)+reaped > faults.Injected() {
			t.Fatalf("after lossy %q: %d cursor(s) open and %d reaped, but only %d repl(ies) lost\n%s",
				stmt, open, reaped, faults.Injected(), ReplayLine(seed))
		}
	}
	// Every orphan is reaped once its open has run.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if open, _ := reapAll(); open == 0 {
			break
		}
		if time.Now().After(deadline) {
			break // noCursorsLeaked reports what is left
		}
	}
	noCursorsLeaked(t, fed, live, "after the lossy run", seed)
	t.Logf("lossy run: %d repl(ies) lost, %d call(s) retried, %d of %d answer(s) partial",
		faults.Injected(), home.Stats.Retries.Load(), partial, len(lossy))
	// Not vacuous: replies were lost, and some lost reply was retried.
	if faults.Injected() == 0 || home.Stats.Retries.Load() == 0 {
		t.Fatalf("lossy run lost %d repl(ies) and retried %d call(s); the schedule tested nothing\n%s",
			faults.Injected(), home.Stats.Retries.Load(), ReplayLine(seed))
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
