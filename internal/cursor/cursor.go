// Package cursor implements server-side result cursors: an iterator over a
// result, handed out a batch at a time over the ISI servant protocol (open ->
// id+first batch, fetch -> batch+done, close). A cursor owns a Source, which
// produces the next batch when it is asked and not before: the ISI's sources
// pull one page of rows from the engine's own iterator and encode it
// (gateway/isi.go), so an open costs the first page, a fetch one more, and a
// cursor that is closed, exhausted or reaped stops the scan behind it. Cursors
// are what turn one huge CORBA reply into a pull-based stream: the client
// fetches the next page only when it wants it, so a slow consumer throttles
// the server instead of ballooning it.
//
// A Table is the per-servant cursor registry. It caps how many cursors one
// connection may hold open (a client that leaks cursors starves itself, not
// the node) and reaps cursors idle past a TTL (a client that vanished
// mid-stream eventually costs nothing). Reaping is lazy — checked on every
// open and fetch — so the table needs no background goroutine and works
// under simulated clocks.
package cursor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/idl"
)

// Defaults for a Table constructed with zero values.
const (
	DefaultMaxOpen = 32
	DefaultIdleTTL = 2 * time.Minute
)

// ErrTooMany reports an open attempt past the table's cap. The ISI servant
// never sees it: it asks Full first (under the mutex that serialises its
// handlers, so the answer holds until its open) and, at the cap, asks its
// source for the whole result in one page, which needs no cursor. The open's
// own check is the table's defence against a caller that does not ask.
var ErrTooMany = errors.New("cursor: too many open cursors")

// ErrNotFound reports a fetch or close of an unknown (possibly reaped)
// cursor ID.
var ErrNotFound = errors.New("cursor: no such cursor")

// Stats counts cursor lifecycle events; fields are atomic and safe to read
// at any time.
type Stats struct {
	Opened  atomic.Int64 // cursors opened (results not exhausted at open)
	Fetches atomic.Int64 // fetch calls answered, the open's first batch included
	Closed  atomic.Int64 // cursors removed by exhaustion, a failing source or explicit close
	Reaped  atomic.Int64 // cursors removed by the idle TTL
}

// StatsSnapshot is the serializable copy of Stats plus the open gauge (the
// shape published under /debug/metrics).
type StatsSnapshot struct {
	Open     int   `json:"cursors_open"`
	RowsHeld int   `json:"rows_held"` // rows open cursors hold materialised; a streaming one holds none
	Opened   int64 `json:"opened"`
	Fetches  int64 `json:"fetches"`
	Closed   int64 `json:"closed"`
	Reaped   int64 `json:"reap_count"`
}

// Source produces a cursor's batches, one per call. The table calls it with
// its own mutex held, one call at a time, and never after Close; a source
// must not call back into the table.
type Source interface {
	// Next returns the next batch and whether it is the last. The batch is
	// read before the next call, which may reuse it.
	Next() (batch []idl.Any, done bool, err error)
	// Held is the number of rows the source holds in memory to serve later
	// batches: the rest of a result it had to materialise, 0 if it streams.
	Held() int
	// Close releases what the source holds and stops the work behind it.
	Close()
}

// Table is one servant's registry of open cursors. The zero value is not
// usable; see NewTable.
type Table struct {
	maxOpen int
	ttl     time.Duration
	now     func() time.Time

	mu      sync.Mutex
	nextID  int64
	cursors map[int64]*state

	stats Stats
}

type state struct {
	src     Source
	touched time.Time
}

// NewTable returns a cursor table capping open cursors at maxOpen (<=0
// selects DefaultMaxOpen) and reaping cursors idle longer than idleTTL (<=0
// selects DefaultIdleTTL). now supplies the clock (nil selects time.Now);
// deterministic tests inject a virtual one.
func NewTable(maxOpen int, idleTTL time.Duration, now func() time.Time) *Table {
	if maxOpen <= 0 {
		maxOpen = DefaultMaxOpen
	}
	if idleTTL <= 0 {
		idleTTL = DefaultIdleTTL
	}
	if now == nil {
		now = time.Now
	}
	return &Table{maxOpen: maxOpen, ttl: idleTTL, now: now, cursors: make(map[int64]*state)}
}

// OpenSource asks src for its first batch and, unless that is also its last,
// registers a cursor over the rest and returns its ID. When the first batch
// exhausts the source, done is true, no cursor is retained, and id is 0: small
// results cost exactly one round trip and no server state. The source is
// closed before OpenSource returns unless a cursor was registered.
func (t *Table) OpenSource(src Source) (id int64, first []idl.Any, done bool, err error) {
	t.stats.Fetches.Add(1)
	first, done, err = src.Next()
	if err != nil || done {
		src.Close()
		return 0, first, done, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked()
	if len(t.cursors) >= t.maxOpen {
		src.Close()
		return 0, nil, false, fmt.Errorf("%w (cap %d)", ErrTooMany, t.maxOpen)
	}
	t.nextID++
	id = t.nextID
	t.cursors[id] = &state{src: src, touched: t.now()}
	t.stats.Opened.Add(1)
	return id, first, false, nil
}

// Open is OpenSource over items already in memory, handed out batch at a time
// (batch <= 0: all at once). Only bench/probes.go's cursor.fetch_us_per_batch
// probe still opens a table this way; the benchmark PR that re-points it at
// OpenSource may delete Open and sliceSource.
func (t *Table) Open(items []idl.Any, batch int) (id int64, first []idl.Any, done bool, err error) {
	if batch <= 0 {
		batch = len(items)
	}
	return t.OpenSource(&sliceSource{items: items, batch: batch})
}

type sliceSource struct {
	items []idl.Any
	batch int
}

func (s *sliceSource) Next() ([]idl.Any, bool, error) {
	out := s.items[:min(s.batch, len(s.items))]
	s.items = s.items[len(out):]
	return out, len(s.items) == 0, nil
}
func (s *sliceSource) Held() int { return len(s.items) }
func (s *sliceSource) Close()    { s.items = nil }

// Fetch returns the cursor's next batch. done reports the cursor is
// exhausted and has been removed, as it is when its source fails; fetching
// an unknown or reaped cursor returns ErrNotFound.
func (t *Table) Fetch(id int64) (batch []idl.Any, done bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked()
	s, ok := t.cursors[id]
	if !ok {
		return nil, false, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	t.stats.Fetches.Add(1)
	batch, done, err = s.src.Next()
	if err != nil || done {
		t.removeLocked(id, &t.stats.Closed)
	} else {
		s.touched = t.now()
	}
	return batch, done, err
}

// removeLocked drops a registered cursor, closes its source and counts the
// removal in the given counter.
func (t *Table) removeLocked(id int64, counter *atomic.Int64) {
	t.cursors[id].src.Close()
	delete(t.cursors, id)
	counter.Add(1)
}

// Full reports whether the table is at its cap once idle cursors are reaped:
// an open that has to retain a cursor would be refused with ErrTooMany. It
// lets a caller size its source's first batch before it opens (a source whose
// first batch is its last needs no cursor).
func (t *Table) Full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reapLocked()
	return len(t.cursors) >= t.maxOpen
}

// Close removes a cursor and closes its source. Closing an unknown (already
// exhausted, reaped, or never opened) cursor is a no-op: close is how clients
// abandon streams early, and races with exhaustion are expected.
func (t *Table) Close(id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.cursors[id]; ok {
		t.removeLocked(id, &t.stats.Closed)
	}
}

// Reap removes every cursor idle past the TTL, closing their sources, and
// reports how many went. Opens and fetches reap lazily, so calling this is
// only needed for tests or an explicit sweep.
func (t *Table) Reap() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reapLocked()
}

func (t *Table) reapLocked() int {
	cutoff := t.now().Add(-t.ttl)
	n := 0
	for id, s := range t.cursors {
		if s.touched.Before(cutoff) {
			t.removeLocked(id, &t.stats.Reaped)
			n++
		}
	}
	return n
}

// OpenCount reports the number of cursors currently registered.
func (t *Table) OpenCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cursors)
}

// Snapshot returns the table's counters plus the open and rows-held gauges.
func (t *Table) Snapshot() StatsSnapshot {
	t.mu.Lock()
	open, held := len(t.cursors), 0
	for _, s := range t.cursors {
		held += s.src.Held()
	}
	t.mu.Unlock()
	return StatsSnapshot{
		Open:     open,
		RowsHeld: held,
		Opened:   t.stats.Opened.Load(),
		Fetches:  t.stats.Fetches.Load(),
		Closed:   t.stats.Closed.Load(),
		Reaped:   t.stats.Reaped.Load(),
	}
}
