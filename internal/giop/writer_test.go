package giop

import (
	"bufio"
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/cdr"
)

// countingWriter records what reaches the stream under a bufio.Writer: the
// bytes and how many writes (flushes) carried them. After failAfter writes
// succeed, every further write fails.
type countingWriter struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	writes    int
	failAfter int // 0: never fail
}

var errStream = errors.New("stream broken")

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failAfter > 0 && w.writes >= w.failAfter {
		return 0, errStream
	}
	w.writes++
	return w.buf.Write(p)
}

func (w *countingWriter) stats() (int, []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes, append([]byte(nil), w.buf.Bytes()...)
}

func ulongMessage(v uint32) *Message {
	e := cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
	e.WriteULong(v)
	return &Message{Type: MsgRequest, Order: cdr.BigEndian, Body: e.Bytes()}
}

// TestWriterLoneWriteIsOnTheStream: with nobody queued behind it, a writer
// flushes before Write returns; no goroutine is left to do it later.
func TestWriterLoneWriteIsOnTheStream(t *testing.T) {
	under := &countingWriter{}
	sw := NewSyncWriter(bufio.NewWriter(under), nil)
	for i := uint32(1); i <= 3; i++ {
		if err := sw.Write(ulongMessage(i)); err != nil {
			t.Fatal(err)
		}
		writes, data := under.stats()
		if writes != int(i) || len(data) != int(i)*(HeaderSize+4) {
			t.Fatalf("after Write %d: %d write(s), %d byte(s) on the stream; want %d and %d",
				i, writes, len(data), i, int(i)*(HeaderSize+4))
		}
	}
}

// TestWriterConcurrentWholeFrames: N writers at once leave N whole frames on
// the stream by the time the last Write returns, in at most N flushes.
func TestWriterConcurrentWholeFrames(t *testing.T) {
	const n = 64
	under := &countingWriter{}
	sw := NewSyncWriter(bufio.NewWriter(under), nil)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v uint32) {
			defer wg.Done()
			if err := sw.Write(ulongMessage(v)); err != nil {
				t.Error(err)
			}
		}(uint32(i))
	}
	wg.Wait()
	writes, data := under.stats()
	if writes > n {
		t.Errorf("%d writers cost %d flushes, want at most %d", n, writes, n)
	}
	seen := make(map[uint32]bool, n)
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		m, err := Read(r)
		if err != nil {
			t.Fatalf("frame %d: %v", len(seen), err)
		}
		d := m.BodyDecoder()
		v, err := d.ReadULong()
		if err != nil || seen[v] || v >= n {
			t.Fatalf("frame %d carries %d (%v), duplicate or out of range", len(seen), v, err)
		}
		seen[v] = true
		m.Release()
	}
	if len(seen) != n {
		t.Fatalf("%d whole frames on the stream, want %d", len(seen), n)
	}
	t.Logf("%d frames in %d flushes", n, writes)
}

// TestWriterFlushErrorSticksAndReportsOnce: the writer whose flush fails
// reports it through onErr before its Write returns, exactly once; later
// Writes fail with the same error and report nothing more.
func TestWriterFlushErrorSticksAndReportsOnce(t *testing.T) {
	under := &countingWriter{failAfter: 1}
	var reported []error
	sw := NewSyncWriter(bufio.NewWriter(under), func(err error) { reported = append(reported, err) })
	if err := sw.Write(ulongMessage(1)); err != nil {
		t.Fatalf("first Write: %v", err)
	}
	err := sw.Write(ulongMessage(2))
	if !errors.Is(err, errStream) {
		t.Fatalf("Write through a broken stream = %v, want %v", err, errStream)
	}
	if len(reported) != 1 || !errors.Is(reported[0], errStream) {
		t.Fatalf("onErr calls when Write returned: %v, want one with %v", reported, errStream)
	}
	for i := 0; i < 3; i++ {
		if err := sw.Write(ulongMessage(3)); !errors.Is(err, errStream) {
			t.Fatalf("Write after the failure = %v, want the sticky %v", err, errStream)
		}
	}
	sw.Close()
	if len(reported) != 1 {
		t.Fatalf("onErr called %d times, want once", len(reported))
	}
}

// TestWriterCloseFlushes: what sits in the buffer reaches the stream on
// Close, and Writes after Close fail.
func TestWriterCloseFlushes(t *testing.T) {
	under := &countingWriter{}
	bw := bufio.NewWriter(under)
	sw := NewSyncWriter(bw, nil)
	if err := writeFrame(bw, new([HeaderSize]byte), ulongMessage(7)); err != nil {
		t.Fatal(err)
	}
	sw.Close()
	if _, data := under.stats(); len(data) != HeaderSize+4 {
		t.Fatalf("Close left %d byte(s) on the stream, want the %d buffered", len(data), HeaderSize+4)
	}
	if err := sw.Write(ulongMessage(8)); err == nil {
		t.Fatal("Write after Close succeeded")
	}
	sw.Close() // idempotent
}

// TestWriterOversizeDoesNotStick: a body above MaxMessageSize is refused with
// ErrTooLarge before anything reaches the stream, and the next frame on the
// same writer goes out as usual.
func TestWriterOversizeDoesNotStick(t *testing.T) {
	under := &countingWriter{}
	sw := NewSyncWriter(bufio.NewWriter(under), nil)
	big := &Message{Type: MsgReply, Order: cdr.BigEndian, Body: make([]byte, MaxMessageSize+1)}
	if err := sw.Write(big); !errors.Is(err, errTooLarge) {
		t.Fatalf("oversize write: err = %v, want errTooLarge", err)
	}
	if writes, data := under.stats(); writes != 0 || len(data) != 0 {
		t.Fatalf("oversize write left %d write(s), %d byte(s) on the stream", writes, len(data))
	}
	if err := sw.Write(ulongMessage(7)); err != nil {
		t.Fatalf("write after the refusal: %v", err)
	}
	m, err := Read(bytes.NewReader(under.buf.Bytes()))
	if err != nil || m.Type != MsgRequest {
		t.Fatalf("frame after the refusal: %+v, %v", m, err)
	}
}
