// Package freelist is the bounded free list through which the per-call path
// recycles its buffers and records: a buffered channel, whose Get takes a
// released item if there is one and whose Put drops an item the list has no
// room for (Effective Go's "leaky buffer"). Unlike a sync.Pool it is not
// emptied by a garbage collection and keeps no per-P caches, so any
// goroutine gets back what any other put; its capacity is the most it holds.
package freelist

// List is a free list of at most a fixed number of items. The zero List
// holds none and makes zero values.
type List[T any] struct {
	c     chan T
	fresh func() T
}

// New returns a list that holds at most n items and makes one with fresh
// when it is empty (nil: T's zero value).
func New[T any](n int, fresh func() T) List[T] {
	return List[T]{c: make(chan T, n), fresh: fresh}
}

// Get takes an item off the list, or makes one if it is empty.
func (l List[T]) Get() (x T) {
	select {
	case x = <-l.c:
	default:
		if l.fresh != nil {
			x = l.fresh()
		}
	}
	return x
}

// Put gives x to the list, or drops it, for the collector, if the list is
// full.
func (l List[T]) Put(x T) {
	select {
	case l.c <- x:
	default:
	}
}
