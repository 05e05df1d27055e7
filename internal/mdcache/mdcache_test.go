package mdcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manualClock is a settable clock for TTL tests.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (m *manualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *manualClock) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	m.mu.Unlock()
}

func fixed(v any) Fetcher {
	return func(context.Context) (any, error) { return v, nil }
}

func TestGetMissThenHit(t *testing.T) {
	clk := newManualClock()
	c := New(Options{Clock: clk.Now})
	ctx := context.Background()

	calls := 0
	req := Request{Fetch: func(context.Context) (any, error) {
		calls++
		return "v1", nil
	}}

	v, out, err := c.Get(ctx, "k", req)
	if err != nil || v != "v1" || out != Miss {
		t.Fatalf("first get = %v, %v, %v; want v1, Miss, nil", v, out, err)
	}
	v, out, err = c.Get(ctx, "k", req)
	if err != nil || v != "v1" || out != Hit {
		t.Fatalf("second get = %v, %v, %v; want v1, Hit, nil", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("fetcher ran %d times, want 1", calls)
	}
	if got := c.Stats.Hits.Load(); got != 1 {
		t.Fatalf("Hits = %d, want 1", got)
	}
	if got := c.Stats.Misses.Load(); got != 1 {
		t.Fatalf("Misses = %d, want 1", got)
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := newManualClock()
	c := New(Options{TTL: time.Second, Clock: clk.Now})
	ctx := context.Background()

	calls := 0
	req := Request{Fetch: func(context.Context) (any, error) {
		calls++
		return calls, nil
	}}

	if v, _, _ := c.Get(ctx, "k", req); v != 1 {
		t.Fatalf("want fetched 1, got %v", v)
	}
	clk.Advance(999 * time.Millisecond)
	if v, out, _ := c.Get(ctx, "k", req); v != 1 || out != Hit {
		t.Fatalf("within TTL: got %v, %v; want 1, Hit", v, out)
	}
	clk.Advance(2 * time.Millisecond)
	if v, out, _ := c.Get(ctx, "k", req); v != 2 || out != Miss {
		t.Fatalf("past TTL: got %v, %v; want refetched 2, Miss", v, out)
	}
}

func TestNegativeCaching(t *testing.T) {
	clk := newManualClock()
	c := New(Options{Clock: clk.Now})
	ctx := context.Background()

	boom := errors.New("no such source")
	calls := 0
	req := Request{Fetch: func(context.Context) (any, error) {
		calls++
		return nil, boom
	}}

	if _, out, err := c.Get(ctx, "k", req); out != Miss || !errors.Is(err, boom) {
		t.Fatalf("first get: out=%v err=%v", out, err)
	}
	if _, out, err := c.Get(ctx, "k", req); out != NegHit || !errors.Is(err, boom) {
		t.Fatalf("within NegTTL: out=%v err=%v; want NegHit with cached error", out, err)
	}
	if calls != 1 {
		t.Fatalf("fetcher ran %d times within NegTTL, want 1", calls)
	}
	clk.Advance(NegTTL + time.Millisecond)
	if _, out, _ := c.Get(ctx, "k", req); out != Miss {
		t.Fatalf("past NegTTL: out=%v; want refetch (Miss)", out)
	}
	if calls != 2 {
		t.Fatalf("fetcher ran %d times after NegTTL, want 2", calls)
	}
	if got := c.Stats.NegHits.Load(); got != 1 {
		t.Fatalf("NegHits = %d, want 1", got)
	}
}

func TestNegativeDoesNotReplacePositiveStale(t *testing.T) {
	// A fetch failure when a positive value exists serves the old value
	// stale instead of installing a negative entry.
	clk := newManualClock()
	c := New(Options{TTL: time.Second, Clock: clk.Now})
	ctx := context.Background()

	c.Get(ctx, "k", fixedReq("good"))
	clk.Advance(2 * time.Second) // expire it

	v, out, err := c.Get(ctx, "k", Request{Fetch: func(context.Context) (any, error) {
		return nil, errors.New("peer down")
	}})
	if err != nil || v != "good" || out != Stale {
		t.Fatalf("got %v, %v, %v; want good, Stale, nil", v, out, err)
	}
	if got := c.Stats.StaleServed.Load(); got != 1 {
		t.Fatalf("StaleServed = %d, want 1", got)
	}
}

func fixedReq(v any) Request { return Request{Fetch: fixed(v)} }

func TestSingleflightDedup(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	var fetches atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	req := Request{Fetch: func(context.Context) (any, error) {
		if fetches.Add(1) == 1 {
			close(started)
		}
		<-release
		return "v", nil
	}}

	const n = 16
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, out, err := c.Get(ctx, "k", req)
			if err != nil {
				t.Errorf("get %d: %v", i, err)
			}
			outs[i] = out
		}(i)
	}
	<-started
	// Give the remaining goroutines time to pile onto the flight; they block
	// on f.done, which only closes after release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := fetches.Load(); got != 1 {
		t.Fatalf("fetcher ran %d times under %d concurrent gets, want 1", got, n)
	}
	misses, coalesced := 0, 0
	for _, o := range outs {
		switch o {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		default:
			t.Fatalf("unexpected outcome %v", o)
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("misses=%d coalesced=%d; want 1 and %d", misses, coalesced, n-1)
	}
}

func TestSingleflightWaiterContextCancel(t *testing.T) {
	c := New(Options{})

	release := make(chan struct{})
	started := make(chan struct{})
	req := Request{Fetch: func(context.Context) (any, error) {
		close(started)
		<-release
		return "v", nil
	}}

	go c.Get(context.Background(), "k", req)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Get(ctx, "k", req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestVersionRevalidation(t *testing.T) {
	clk := newManualClock()
	c := New(Options{TTL: time.Second, Clock: clk.Now})
	ctx := context.Background()

	var ver atomic.Uint64
	ver.Store(7)
	fetches := 0
	req := Request{
		Fetch: func(context.Context) (any, error) {
			fetches++
			return fmt.Sprintf("v%d", fetches), nil
		},
		Version: func(context.Context) (uint64, error) { return ver.Load(), nil },
	}

	if v, _, _ := c.Get(ctx, "k", req); v != "v1" {
		t.Fatalf("want v1, got %v", v)
	}
	// Expired + unchanged version: revalidate, serve cached, no refetch.
	clk.Advance(2 * time.Second)
	if v, out, _ := c.Get(ctx, "k", req); v != "v1" || out != Hit {
		t.Fatalf("revalidated get = %v, %v; want v1, Hit", v, out)
	}
	if fetches != 1 {
		t.Fatalf("fetches = %d after revalidation, want 1", fetches)
	}
	if got := c.Stats.Revalidations.Load(); got != 1 {
		t.Fatalf("Revalidations = %d, want 1", got)
	}
	// Revalidation extended the TTL: still a plain hit.
	clk.Advance(500 * time.Millisecond)
	if _, out, _ := c.Get(ctx, "k", req); out != Hit {
		t.Fatalf("post-revalidation get outcome = %v, want Hit", out)
	}

	// Version bump + expiry: refetch.
	ver.Store(8)
	clk.Advance(2 * time.Second)
	if v, out, _ := c.Get(ctx, "k", req); v != "v2" || out != Miss {
		t.Fatalf("after version bump = %v, %v; want v2, Miss", v, out)
	}
}

func TestVerifyHitSeesVersionBumpImmediately(t *testing.T) {
	clk := newManualClock()
	c := New(Options{TTL: time.Hour, Clock: clk.Now})
	ctx := context.Background()

	var ver atomic.Uint64
	fetches := 0
	req := Request{
		VerifyHit: true,
		Fetch: func(context.Context) (any, error) {
			fetches++
			return fmt.Sprintf("v%d", fetches), nil
		},
		Version: func(context.Context) (uint64, error) { return ver.Load(), nil },
	}

	c.Get(ctx, "k", req)
	if v, out, _ := c.Get(ctx, "k", req); v != "v1" || out != Hit {
		t.Fatalf("verified hit = %v, %v; want v1, Hit", v, out)
	}
	ver.Add(1) // mutation, well within TTL
	if v, out, _ := c.Get(ctx, "k", req); v != "v2" || out != Miss {
		t.Fatalf("after bump = %v, %v; want refetched v2, Miss", v, out)
	}
	if fetches != 2 {
		t.Fatalf("fetches = %d, want 2", fetches)
	}
}

func TestStaleWhenVersionerUnavailable(t *testing.T) {
	clk := newManualClock()
	c := New(Options{TTL: time.Second, Clock: clk.Now})
	ctx := context.Background()

	req := Request{
		Fetch:   fixed("good"),
		Version: func(context.Context) (uint64, error) { return 3, nil },
	}
	c.Get(ctx, "k", req)
	clk.Advance(2 * time.Second)

	down := Request{
		Fetch:   func(context.Context) (any, error) { return nil, errors.New("unreachable") },
		Version: func(context.Context) (uint64, error) { return 0, errors.New("unreachable") },
	}
	v, out, err := c.Get(ctx, "k", down)
	if err != nil || v != "good" || out != Stale {
		t.Fatalf("got %v, %v, %v; want good, Stale, nil", v, out, err)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	calls := 0
	req := Request{Fetch: func(context.Context) (any, error) {
		calls++
		return calls, nil
	}}
	c.Get(ctx, "a", req)
	c.Get(ctx, "b", req)

	c.Invalidate("a")
	if v, out, _ := c.Get(ctx, "a", req); v != 3 || out != Miss {
		t.Fatalf("after Invalidate: %v, %v; want refetched 3, Miss", v, out)
	}
	if _, out, _ := c.Get(ctx, "b", req); out != Hit {
		t.Fatalf("unrelated key evicted by Invalidate")
	}

	c.Get(ctx, "p|x", req)
	c.Get(ctx, "p|y", req)
	c.Get(ctx, "q|z", req)
	c.InvalidatePrefix("p|")
	if _, out, _ := c.Get(ctx, "p|x", req); out != Miss {
		t.Fatalf("p|x survived InvalidatePrefix")
	}
	if _, out, _ := c.Get(ctx, "q|z", req); out != Hit {
		t.Fatalf("q|z dropped by InvalidatePrefix(p|)")
	}

	c.InvalidateAll()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after InvalidateAll, want 0", c.Len())
	}
	if _, out, _ := c.Get(ctx, "b", req); out != Miss {
		t.Fatalf("b survived InvalidateAll")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	for i := 0; i < MaxEntries; i++ {
		k := fmt.Sprint("k", i)
		c.Get(ctx, k, fixedReq(k))
	}
	c.Get(ctx, "k0", fixedReq("k0"))   // k0 is now most recent; k1 is LRU
	c.Get(ctx, "new", fixedReq("new")) // entry 4 097 evicts k1

	if c.Len() != MaxEntries {
		t.Fatalf("Len = %d, want %d", c.Len(), MaxEntries)
	}
	if got := c.Stats.Evictions.Load(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	if _, out, _ := c.Get(ctx, "k0", fixedReq("k0")); out != Hit {
		t.Fatalf("recently used k0 was evicted, got %v", out)
	}
	if _, out, _ := c.Get(ctx, "k1", fixedReq("k1")); out != Miss {
		t.Fatalf("k1 should have been evicted (LRU), got %v", out)
	}
}

func TestSnapshotAndOutcomeString(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()
	c.Get(ctx, "k", fixedReq(1))
	c.Get(ctx, "k", fixedReq(1))
	s := c.Snapshot()
	if s.Entries != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	for o, want := range map[Outcome]string{
		Miss: "miss", Hit: "hit",
		NegHit: "neghit", Stale: "stale", Coalesced: "coalesced",
	} {
		if o.String() != want {
			t.Fatalf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
	if !Hit.Served() || !Stale.Served() || !NegHit.Served() || Miss.Served() || Coalesced.Served() {
		t.Fatalf("Served() classification wrong")
	}
}

func TestPeek(t *testing.T) {
	clk := newManualClock()
	c := New(Options{TTL: time.Second, Clock: clk.Now})
	ctx := context.Background()

	if _, ok := c.Peek("absent"); ok {
		t.Fatal("peek hit on an absent key")
	}
	if _, _, err := c.Get(ctx, "k", Request{Fetch: fixed("v")}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := c.Stats.Hits.Load()
	v, ok := c.Peek("k")
	if !ok || v != "v" {
		t.Fatalf("peek = %v, %v; want v, true", v, ok)
	}
	if c.Stats.Hits.Load() != hitsBefore+1 {
		t.Error("peek hit not counted")
	}

	// Negative entries are not peekable.
	boom := errors.New("boom")
	if _, _, err := c.Get(ctx, "neg", Request{Fetch: func(context.Context) (any, error) {
		return nil, boom
	}}); !errors.Is(err, boom) {
		t.Fatalf("negative get err = %v", err)
	}
	if _, ok := c.Peek("neg"); ok {
		t.Error("peek hit on a negative entry")
	}

	// Expired entries are not peekable, and Peek itself never refreshes.
	clk.Advance(2 * time.Second)
	if _, ok := c.Peek("k"); ok {
		t.Error("peek hit on an expired entry")
	}
}
