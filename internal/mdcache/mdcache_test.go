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

// TestTTLExpiry: the only TTL is the negative one. A positive entry outlives
// any clock advance while its version holds; an error expires after NegTTL.
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
	clk.Advance(24 * time.Hour)
	if v, out, _ := c.Get(ctx, "k", req); v != 1 || out != Hit {
		t.Fatalf("a day later: got %v, %v; want 1, Hit", v, out)
	}

	boom := errors.New("boom")
	fail := Request{Fetch: func(context.Context) (any, error) { return nil, boom }}
	c.Get(ctx, "neg", fail)
	clk.Advance(NegTTL)
	if _, out, _ := c.Get(ctx, "neg", fail); out != Miss {
		t.Fatalf("negative entry at NegTTL: got %v, want Miss", out)
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

// TestFailedRefetchIsNegative: once the version moves past a positive entry,
// a failed refetch installs the error, never the outdated value.
func TestFailedRefetchIsNegative(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	var ver atomic.Uint64
	version := func(context.Context) (uint64, bool) { return ver.Load(), true }
	c.Get(ctx, "k", Request{Fetch: fixed("good"), Version: version})
	ver.Add(1)

	boom := errors.New("peer down")
	fail := Request{Fetch: func(context.Context) (any, error) { return nil, boom }, Version: version}
	if v, out, err := c.Get(ctx, "k", fail); v != nil || out != Miss || !errors.Is(err, boom) {
		t.Fatalf("got %v, %v, %v; want nil, Miss, %v", v, out, err, boom)
	}
	if _, out, err := c.Get(ctx, "k", fail); out != NegHit || !errors.Is(err, boom) {
		t.Fatalf("repeat: got %v, %v; want NegHit, %v", out, err, boom)
	}
	if s := c.Snapshot(); s.StaleServed != 0 {
		t.Fatalf("StaleServed = %d, want 0", s.StaleServed)
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

// TestVersionRevalidation: every hit is checked against the version read,
// and the stamp is the version read before the fetch, so a mutation landing
// mid-fetch makes the next read refetch instead of serving the older answer.
func TestVersionRevalidation(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	var ver atomic.Uint64
	ver.Store(7)
	fetches := 0
	req := Request{
		Fetch: func(context.Context) (any, error) {
			fetches++
			if fetches == 1 {
				ver.Store(8) // the source moves while the first fetch runs
			}
			return fmt.Sprintf("v%d", fetches), nil
		},
		Version: func(context.Context) (uint64, bool) { return ver.Load(), true },
	}

	if v, _, _ := c.Get(ctx, "k", req); v != "v1" {
		t.Fatalf("want v1, got %v", v)
	}
	if v, out, _ := c.Get(ctx, "k", req); v != "v2" || out != Miss {
		t.Fatalf("after a mid-fetch mutation = %v, %v; want v2, Miss", v, out)
	}
	if v, out, _ := c.Get(ctx, "k", req); v != "v2" || out != Hit {
		t.Fatalf("unchanged version = %v, %v; want v2, Hit", v, out)
	}
	if fetches != 2 {
		t.Fatalf("fetches = %d, want 2", fetches)
	}
}

func TestVerifyHitSeesVersionBumpImmediately(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	var ver atomic.Uint64
	fetches := 0
	req := Request{
		Fetch: func(context.Context) (any, error) {
			fetches++
			return fmt.Sprintf("v%d", fetches), nil
		},
		Version: func(context.Context) (uint64, bool) { return ver.Load(), true },
	}

	c.Get(ctx, "k", req)
	if v, out, _ := c.Get(ctx, "k", req); v != "v1" || out != Hit {
		t.Fatalf("verified hit = %v, %v; want v1, Hit", v, out)
	}
	ver.Add(1)
	if v, out, _ := c.Get(ctx, "k", req); v != "v2" || out != Miss {
		t.Fatalf("after bump = %v, %v; want refetched v2, Miss", v, out)
	}
	if v, ok := c.Peek("k", ver.Load()-1); ok {
		t.Fatalf("peek under the old version served %v", v)
	}
	if fetches != 2 {
		t.Fatalf("fetches = %d, want 2", fetches)
	}
}

// TestUnknownVersionIsNotCached: a lookup whose version cannot be read is
// fetched on every read and never installed.
func TestUnknownVersionIsNotCached(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	fetches := 0
	req := Request{
		Fetch: func(context.Context) (any, error) {
			fetches++
			return "good", nil
		},
		Version: func(context.Context) (uint64, bool) { return 0, false },
	}
	for i := 1; i <= 3; i++ {
		if v, out, err := c.Get(ctx, "k", req); err != nil || v != "good" || out != Miss {
			t.Fatalf("read %d: got %v, %v, %v; want good, Miss, nil", i, v, out, err)
		}
	}
	if fetches != 3 || c.Stats.Misses.Load() != 3 || c.Len() != 0 {
		t.Fatalf("fetches %d, misses %d, entries %d; want 3, 3, 0", fetches, c.Stats.Misses.Load(), c.Len())
	}
}

// TestFreshReaderSkipsAnOlderFlight: a reader whose version is newer than an
// in-flight fetch's does not wait for that fetch's older answer.
func TestFreshReaderSkipsAnOlderFlight(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	var ver atomic.Uint64
	started := make(chan struct{})
	release := make(chan struct{})
	version := func(context.Context) (uint64, bool) { return ver.Load(), true }
	old := Request{Version: version, Fetch: func(context.Context) (any, error) {
		close(started)
		<-release
		return "old", nil
	}}
	done := make(chan any)
	go func() {
		v, _, _ := c.Get(ctx, "k", old)
		done <- v
	}()
	<-started
	ver.Store(1)
	v, out, err := c.Get(ctx, "k", Request{Version: version, Fetch: fixed("new")})
	if err != nil || v != "new" || out != Miss {
		t.Fatalf("newer reader got %v, %v, %v; want new, Miss, nil", v, out, err)
	}
	close(release)
	if v := <-done; v != "old" {
		t.Fatalf("older flight returned %v", v)
	}
	// The older flight finished last, so its answer went in under the old
	// stamp: a read under version 1 must not be served it.
	if v, _, _ := c.Get(ctx, "k", Request{Version: version, Fetch: fixed("refetched")}); v == "old" {
		t.Fatal("served the older flight's answer under version 1")
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

	c.InvalidateAll()
	if c.Len() != 0 || c.Stats.Invalidations.Load() != 2 {
		t.Fatalf("Len = %d, Invalidations = %d after InvalidateAll, want 0, 2", c.Len(), c.Stats.Invalidations.Load())
	}
	if v, out, _ := c.Get(ctx, "b", req); v != 3 || out != Miss {
		t.Fatalf("after InvalidateAll: %v, %v; want refetched 3, Miss", v, out)
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
		NegHit: "neghit", Coalesced: "coalesced",
	} {
		if o.String() != want {
			t.Fatalf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
	if !Hit.Served() || !NegHit.Served() || Miss.Served() || Coalesced.Served() {
		t.Fatalf("Served() classification wrong")
	}
}

func TestPeek(t *testing.T) {
	c := New(Options{})
	ctx := context.Background()

	if _, ok := c.Peek("absent", 0); ok {
		t.Fatal("peek hit on an absent key")
	}
	version := func(context.Context) (uint64, bool) { return 4, true }
	if _, _, err := c.Get(ctx, "k", Request{Fetch: fixed("v"), Version: version}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := c.Stats.Hits.Load()
	v, ok := c.Peek("k", 4)
	if !ok || v != "v" {
		t.Fatalf("peek = %v, %v; want v, true", v, ok)
	}
	if c.Stats.Hits.Load() != hitsBefore+1 {
		t.Error("peek hit not counted")
	}
	if _, ok := c.Peek("k", 5); ok {
		t.Error("peek hit under a newer version")
	}

	// Negative entries are not peekable.
	boom := errors.New("boom")
	if _, _, err := c.Get(ctx, "neg", Request{Fetch: func(context.Context) (any, error) {
		return nil, boom
	}}); !errors.Is(err, boom) {
		t.Fatalf("negative get err = %v", err)
	}
	if _, ok := c.Peek("neg", 0); ok {
		t.Error("peek hit on a negative entry")
	}
}
