// Package simnet is a deterministic, in-memory network for testing the
// reproduction's ORB federation: net.Conn/net.Listener implementations with
// no OS sockets, host-pair partitions and blackholes, per-link latency, and
// a virtual clock so injected delays are simulated-time events instead of
// wall-clock stalls. It plugs into the ORB through the orb.Transport seam
// (Options.Transport). FaultTransport (faults.go) decorates any transport,
// an Endpoint or the ORB's TCP, with a FaultPlan acting on whole GIOP
// messages; over an Endpoint its latency sleeps on the virtual clock, so a
// fault latency of two seconds resolves in microseconds of wall time while
// still advancing the virtual clock by two seconds.
//
// Determinism model: simnet is not a single-threaded event-loop simulator —
// goroutines still run under the Go scheduler — but every source of
// simulated nondeterminism is seeded or ordered: virtual timers fire in
// strict (deadline, creation-sequence) order, per-direction message delivery
// is FIFO even under latency, and partitions take effect synchronously. A
// serial workload over simnet (internal/simtest) is therefore replayable:
// the same seed produces the same event order and the same verdicts.
package simnet

import (
	"container/heap"
	"sync"
	"time"
)

// simEpoch is the virtual time origin: fixed, so runs are comparable and no
// wall-clock reading leaks into simulated time.
var simEpoch = time.Unix(1_000_000_000, 0).UTC()

// Clock is a virtual clock. Time only moves when Advance (or the owning
// Net's idle auto-advancer) moves it; Sleep and AfterFunc schedule against
// virtual deadlines. Timers with equal deadlines fire in creation order.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers timerHeap
}

// NewClock returns a virtual clock starting at the fixed simulation epoch.
func NewClock() *Clock {
	return &Clock{now: simEpoch}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Elapsed returns how much virtual time has passed since the epoch.
func (c *Clock) Elapsed() time.Duration {
	return c.Now().Sub(simEpoch)
}

// AfterFunc schedules fn to run (in its scheduler's goroutine, without any
// clock lock held) once the virtual clock reaches now+d.
func (c *Clock) AfterFunc(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	c.seq++
	heap.Push(&c.timers, &timer{at: c.now.Add(d), seq: c.seq, fn: fn})
	c.mu.Unlock()
}

// Sleep blocks the calling goroutine until the virtual clock has advanced by
// d. It returns immediately for non-positive d.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	c.AfterFunc(d, func() { close(done) })
	<-done
}

// Advance moves virtual time forward by d, firing every timer whose deadline
// is reached, in (deadline, creation) order. Timer callbacks run in the
// caller's goroutine with no locks held, so they may schedule new timers;
// newly scheduled timers that land within the advance window fire too.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	target := c.now.Add(d)
	c.advanceToLocked(target)
	c.mu.Unlock()
}

// AdvanceToNext jumps the clock to the earliest pending timer deadline and
// fires it (plus any timers sharing that deadline). It reports whether a
// timer was pending. The Net's auto-advancer calls this when the simulation
// is otherwise idle, so virtual sleeps resolve without wall-clock waits.
func (c *Clock) AdvanceToNext() bool {
	c.mu.Lock()
	if len(c.timers) == 0 {
		c.mu.Unlock()
		return false
	}
	target := c.timers[0].at
	c.advanceToLocked(target)
	c.mu.Unlock()
	return true
}

// PendingTimers reports how many virtual timers are scheduled.
func (c *Clock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// advanceToLocked moves the clock to target, firing due timers in order.
// Called with c.mu held; releases and reacquires it around each callback.
func (c *Clock) advanceToLocked(target time.Time) {
	for len(c.timers) > 0 && !c.timers[0].at.After(target) {
		t := heap.Pop(&c.timers).(*timer)
		if t.at.After(c.now) {
			c.now = t.at
		}
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
	}
	if target.After(c.now) {
		c.now = target
	}
}

// timer is one scheduled callback; seq breaks deadline ties deterministically
// in creation order.
type timer struct {
	at  time.Time
	seq uint64
	fn  func()
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
