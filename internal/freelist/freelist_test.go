package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListBounds: Get on an empty list makes an item (the zero value
// without a maker), a full list drops what is put, and the zero List holds
// nothing.
func TestListBounds(t *testing.T) {
	made := 0
	l := New(2, func() *int { made++; return new(int) })
	if got := l.Get(); got == nil || made != 1 {
		t.Fatalf("Get on an empty list = %v after %d make(s), want a fresh item", got, made)
	}
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c) // dropped
	if got := l.Get(); got != a {
		t.Fatal("Get did not return the first item put")
	}
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the second item put")
	}
	if got := l.Get(); got == c || made != 2 {
		t.Fatal("a list of 2 kept a third item")
	}
	if got := New[*int](1, nil).Get(); got != nil {
		t.Fatalf("an empty list without a maker returned %v", got)
	}
	var zero List[[]byte]
	zero.Put([]byte("x"))
	if got := zero.Get(); got != nil {
		t.Fatalf("the zero List returned %q", got)
	}
}

// TestListSurvivesCollection: what is put is there after a collection, and
// a goroutine other than the one that put it gets it.
func TestListSurvivesCollection(t *testing.T) {
	l := New[*[64]byte](4, nil)
	want := new([64]byte)
	l.Put(want)
	runtime.GC()
	runtime.GC()
	var got *[64]byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got = l.Get()
	}()
	wg.Wait()
	if got != want {
		t.Fatal("an item put before two collections was not there after them")
	}
}
