package cursor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/idl"
)

func items(n int) []idl.Any {
	out := make([]idl.Any, n)
	for i := range out {
		out[i] = idl.String(fmt.Sprintf("row-%03d", i))
	}
	return out
}

func TestOpenSmallResultRetainsNothing(t *testing.T) {
	tb := NewTable(4, time.Minute, nil)
	id, first, done, err := tb.Open(items(3), 10)
	if err != nil || !done || id != 0 {
		t.Fatalf("open = id %d, done %v, err %v", id, done, err)
	}
	if len(first) != 3 || tb.OpenCount() != 0 {
		t.Fatalf("first batch %d rows, %d cursors retained", len(first), tb.OpenCount())
	}
	// batch <= 0 means everything at once.
	_, first, done, _ = tb.Open(items(5), 0)
	if !done || len(first) != 5 {
		t.Fatalf("batch 0: done %v, %d rows", done, len(first))
	}
}

func TestOpenFetchClose(t *testing.T) {
	tb := NewTable(4, time.Minute, nil)
	id, first, done, err := tb.Open(items(7), 3)
	if err != nil || done || id == 0 {
		t.Fatalf("open = id %d, done %v, err %v", id, done, err)
	}
	if len(first) != 3 || first[0].Str != "row-000" {
		t.Fatalf("first batch = %v", first)
	}
	b2, done, err := tb.Fetch(id)
	if err != nil || done || len(b2) != 3 || b2[0].Str != "row-003" {
		t.Fatalf("fetch 2 = %v, done %v, err %v", b2, done, err)
	}
	b3, done, err := tb.Fetch(id)
	if err != nil || !done || len(b3) != 1 || b3[0].Str != "row-006" {
		t.Fatalf("fetch 3 = %v, done %v, err %v", b3, done, err)
	}
	if tb.OpenCount() != 0 {
		t.Fatalf("%d cursors after exhaustion", tb.OpenCount())
	}
	if _, _, err := tb.Fetch(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch after exhaustion: %v", err)
	}
	tb.Close(id) // idempotent no-op

	snap := tb.Snapshot()
	if snap.Opened != 1 || snap.Fetches != 3 || snap.Closed != 1 || snap.Open != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestCloseAbandonsEarly(t *testing.T) {
	tb := NewTable(4, time.Minute, nil)
	id, _, _, err := tb.Open(items(10), 2)
	if err != nil {
		t.Fatal(err)
	}
	tb.Close(id)
	if tb.OpenCount() != 0 {
		t.Fatal("close left the cursor open")
	}
	if _, _, err := tb.Fetch(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch after close: %v", err)
	}
}

func TestOpenCap(t *testing.T) {
	tb := NewTable(2, time.Minute, nil)
	for i := 0; i < 2; i++ {
		if _, _, _, err := tb.Open(items(10), 2); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, err := tb.Open(items(10), 2)
	if !errors.Is(err, ErrTooMany) {
		t.Fatalf("open past cap: %v", err)
	}
	// A small result (no cursor retained) still succeeds at the cap.
	if _, _, done, err := tb.Open(items(1), 2); err != nil || !done {
		t.Fatalf("small open at cap: done %v, err %v", done, err)
	}
}

func TestIdleReaping(t *testing.T) {
	clock := time.Unix(1000, 0)
	tb := NewTable(8, time.Minute, func() time.Time { return clock })
	stale, _, _, _ := tb.Open(items(10), 2)
	clock = clock.Add(30 * time.Second)
	fresh, _, _, _ := tb.Open(items(10), 2)
	clock = clock.Add(45 * time.Second) // stale now 75s idle, fresh 45s

	if _, _, err := tb.Fetch(fresh); err != nil {
		t.Fatalf("fetch fresh: %v", err)
	}
	if _, _, err := tb.Fetch(stale); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale cursor survived the TTL: %v", err)
	}
	snap := tb.Snapshot()
	if snap.Reaped != 1 || snap.Open != 1 {
		t.Fatalf("snapshot after reap = %+v", snap)
	}

	// A fetch refreshes the idle clock.
	clock = clock.Add(45 * time.Second) // fresh last touched 45s ago
	if _, _, err := tb.Fetch(fresh); err != nil {
		t.Fatalf("refreshed cursor reaped: %v", err)
	}

	// Explicit sweep.
	clock = clock.Add(2 * time.Minute)
	if n := tb.Reap(); n != 1 {
		t.Fatalf("explicit reap = %d", n)
	}
}

// countSource counts from 0 a batch of one item per call, until last, and
// records what the table does to it.
type countSource struct {
	next, last int
	fail       error // returned in place of batch number failAt
	failAt     int
	held       int
	calls      int
	closed     int
}

func (s *countSource) Next() ([]idl.Any, bool, error) {
	s.calls++
	if s.fail != nil && s.next == s.failAt {
		return nil, false, s.fail
	}
	s.next++
	return []idl.Any{idl.Long(int64(s.next - 1))}, s.next > s.last, nil
}
func (s *countSource) Held() int { return s.held }
func (s *countSource) Close()    { s.closed++ }

// TestSourcePulledOneBatchPerCall: an open asks its source for one batch, a
// fetch for one more, and nothing runs ahead of the client.
func TestSourcePulledOneBatchPerCall(t *testing.T) {
	tb := NewTable(4, time.Minute, nil)
	src := &countSource{last: 2, held: 40}
	id, first, done, err := tb.OpenSource(src)
	if err != nil || done || id == 0 || first[0].Int != 0 || src.calls != 1 {
		t.Fatalf("open = id %d, %v, done %v, err %v after %d call(s)", id, first, done, err, src.calls)
	}
	if snap := tb.Snapshot(); snap.Open != 1 || snap.RowsHeld != 40 {
		t.Fatalf("snapshot mid-stream = %+v", snap)
	}
	if b, done, err := tb.Fetch(id); err != nil || done || b[0].Int != 1 || src.calls != 2 || src.closed != 0 {
		t.Fatalf("fetch = %v, done %v, err %v after %d call(s), %d close(s)", b, done, err, src.calls, src.closed)
	}
	if b, done, err := tb.Fetch(id); err != nil || !done || b[0].Int != 2 || src.calls != 3 {
		t.Fatalf("last fetch = %v, done %v, err %v after %d call(s)", b, done, err, src.calls)
	}
	if snap := tb.Snapshot(); src.closed != 1 || snap.Open != 0 || snap.RowsHeld != 0 || snap.Closed != 1 {
		t.Fatalf("after exhaustion: %d close(s), snapshot %+v", src.closed, snap)
	}
}

// TestEveryWayOutClosesTheSource: a cursor leaves the table by exhaustion at
// open, by the cap, by Close, by the reaper or by its source failing, and each
// way closes the source exactly once and never calls it again.
func TestEveryWayOutClosesTheSource(t *testing.T) {
	clock := time.Unix(1000, 0)
	tb := NewTable(2, time.Minute, func() time.Time { return clock })
	boom := errors.New("boom")

	oneBatch := &countSource{last: 0}
	if id, _, done, err := tb.OpenSource(oneBatch); id != 0 || !done || err != nil || oneBatch.closed != 1 {
		t.Fatalf("one-batch open = id %d, done %v, err %v, %d close(s)", id, done, err, oneBatch.closed)
	}
	failsAtOpen := &countSource{last: 5, fail: boom}
	if _, _, _, err := tb.OpenSource(failsAtOpen); !errors.Is(err, boom) || failsAtOpen.closed != 1 || tb.OpenCount() != 0 {
		t.Fatalf("failing open = %v, %d close(s), %d open", err, failsAtOpen.closed, tb.OpenCount())
	}

	closedEarly, reaped, failsLater := &countSource{last: 5}, &countSource{last: 5}, &countSource{last: 5, fail: boom, failAt: 1}
	a, _, _, _ := tb.OpenSource(closedEarly)
	b, _, _, _ := tb.OpenSource(reaped)
	pastCap := &countSource{last: 5}
	if _, _, _, err := tb.OpenSource(pastCap); !errors.Is(err, ErrTooMany) || pastCap.closed != 1 {
		t.Fatalf("open past the cap = %v, %d close(s)", err, pastCap.closed)
	}
	tb.Close(a)
	tb.Close(a)
	if closedEarly.closed != 1 {
		t.Fatalf("closed cursor's source closed %d time(s)", closedEarly.closed)
	}
	clock = clock.Add(90 * time.Second)
	c, _, _, _ := tb.OpenSource(failsLater)
	if reaped.closed != 1 { // the open above reaped it
		t.Fatalf("reaped cursor's source closed %d time(s)", reaped.closed)
	}
	if _, _, err := tb.Fetch(c); !errors.Is(err, boom) || failsLater.closed != 1 {
		t.Fatalf("fetch of a failing source = %v, %d close(s)", err, failsLater.closed)
	}
	if _, _, err := tb.Fetch(c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a failed cursor is still there: %v", err)
	}
	if _, _, err := tb.Fetch(b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch of a reaped cursor: %v", err)
	}
	for name, s := range map[string]*countSource{"closed": closedEarly, "reaped": reaped, "failed": failsLater} {
		if want := map[string]int{"closed": 1, "reaped": 1, "failed": 2}[name]; s.calls != want {
			t.Errorf("%s cursor's source was called %d time(s), want %d", name, s.calls, want)
		}
	}
	if snap := tb.Snapshot(); snap.Open != 0 || snap.Reaped != 1 || snap.Closed != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
