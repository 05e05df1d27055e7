package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a Tracer.
type Options struct {
	// Capacity bounds the span ring buffer (default 2048). The recorder keeps
	// the most recent Capacity finished spans; older spans are overwritten.
	Capacity int
	// SlowCapacity bounds the slow-call ring buffer (default 256).
	SlowCapacity int
	// SlowThreshold marks spans at or above this duration as slow calls,
	// keeping them in a dedicated ring and reporting them through SlowLog.
	// 0 disables the slow-call log.
	SlowThreshold time.Duration
	// SlowLog, when set, receives one formatted line per slow call.
	SlowLog func(format string, args ...any)
}

// Tracer aggregates finished spans: a bounded ring of recent spans, a bounded
// ring of slow calls, and per-operation counters + latency histograms keyed
// by span name. All methods are safe for concurrent use.
type Tracer struct {
	spans   *ring
	slow    *ring
	slowNS  atomic.Int64
	slowLog func(format string, args ...any) // fixed at New
	ops     sync.Map                         // span name -> *opMetrics
	vars    sync.Map                         // name -> func() any, extra /debug/metrics publishers
}

// New creates a Tracer.
func New(o Options) *Tracer {
	if o.Capacity <= 0 {
		o.Capacity = 2048
	}
	if o.SlowCapacity <= 0 {
		o.SlowCapacity = 256
	}
	t := &Tracer{spans: newRing(o.Capacity), slow: newRing(o.SlowCapacity), slowLog: o.SlowLog}
	t.slowNS.Store(int64(o.SlowThreshold))
	return t
}

var defaultTracer = New(Options{})

// Default returns the process-wide tracer, used when a span is started
// without an explicit tracer in scope (like the expvar default var set).
func Default() *Tracer { return defaultTracer }

// SetSlowThreshold adjusts the slow-call threshold (0 disables).
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNS.Store(int64(d)) }

// SlowThreshold returns the current slow-call threshold.
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slowNS.Load()) }

// Publish registers a named callback whose value is included in the
// /debug/metrics document (expvar-style). Re-publishing a name replaces it.
func (t *Tracer) Publish(name string, fn func() any) { t.vars.Store(name, fn) }

// record files one finished span. Called by Span.End.
func (t *Tracer) record(rec spanRec) {
	t.spans.add(rec)
	t.opFor(rec.name).observe(rec.duration, rec.err != "")
	if thr := t.slowNS.Load(); thr > 0 && rec.duration >= time.Duration(thr) {
		t.slow.add(rec)
		if t.slowLog != nil {
			t.slowLog("trace: slow call %s took %v (trace %s, threshold %v)",
				rec.name, rec.duration, rec.trace, time.Duration(thr))
		}
	}
}

func (t *Tracer) opFor(name string) *opMetrics {
	if m, ok := t.ops.Load(name); ok {
		return m.(*opMetrics)
	}
	m, _ := t.ops.LoadOrStore(name, newOpMetrics())
	return m.(*opMetrics)
}

// Spans returns the recorded spans, oldest first.
func (t *Tracer) Spans() []SpanRecord { return export(t.spans.snapshot()) }

// TraceSpans returns the recorded spans of one trace (hex ID), oldest first.
func (t *Tracer) TraceSpans(traceID string) []SpanRecord {
	all := t.spans.snapshot()
	out := all[:0:0]
	for _, rec := range all {
		if rec.trace.String() == traceID {
			out = append(out, rec)
		}
	}
	return export(out)
}

// SlowCalls returns the recorded slow calls, oldest first.
func (t *Tracer) SlowCalls() []SpanRecord { return export(t.slow.snapshot()) }

// export renders ring records into the public hex-string form.
func export(recs []spanRec) []SpanRecord {
	out := make([]SpanRecord, len(recs))
	for i, rec := range recs {
		out[i] = rec.export()
	}
	return out
}

// Reset clears the rings and the per-operation metrics (tests, benchmarks).
func (t *Tracer) Reset() {
	t.spans.reset()
	t.slow.reset()
	t.ops.Range(func(k, _ any) bool {
		t.ops.Delete(k)
		return true
	})
}

// ---- ring buffer ----

type ring struct {
	mu   sync.Mutex
	buf  []spanRec
	next int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]spanRec, n)} }

func (r *ring) add(rec spanRec) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// snapshot copies the ring contents, oldest first.
func (r *ring) snapshot() []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]spanRec(nil), r.buf[:r.next]...)
	}
	out := make([]spanRec, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

func (r *ring) reset() {
	r.mu.Lock()
	r.next = 0
	r.full = false
	for i := range r.buf {
		r.buf[i] = spanRec{}
	}
	r.mu.Unlock()
}

// ---- per-operation metrics ----

// bucketBounds are the histogram's upper bounds. They span the latencies this
// system produces (sub-µs colocated calls to multi-ms WAN-like members); the
// last bucket is open-ended.
var bucketBounds = []time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 500 * time.Millisecond, 1 * time.Second,
}

type opMetrics struct {
	count   atomic.Int64
	errors  atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets []atomic.Int64 // len(bucketBounds)+1, last is +Inf
}

func newOpMetrics() *opMetrics {
	return &opMetrics{buckets: make([]atomic.Int64, len(bucketBounds)+1)}
}

func (m *opMetrics) observe(d time.Duration, failed bool) {
	m.count.Add(1)
	if failed {
		m.errors.Add(1)
	}
	ns := int64(d)
	m.sumNS.Add(ns)
	for {
		max := m.maxNS.Load()
		if ns <= max || m.maxNS.CompareAndSwap(max, ns) {
			break
		}
	}
	i := sort.Search(len(bucketBounds), func(i int) bool { return d <= bucketBounds[i] })
	m.buckets[i].Add(1)
}

// HistogramBucket is one histogram cell of a metrics snapshot.
type HistogramBucket struct {
	Le    string `json:"le"` // upper bound ("+Inf" for the last)
	Count int64  `json:"count"`
}

// OpSnapshot is the point-in-time state of one operation's metrics.
type OpSnapshot struct {
	Op        string            `json:"op"`
	Count     int64             `json:"count"`
	Errors    int64             `json:"errors"`
	MeanNS    int64             `json:"mean_ns"`
	MaxNS     int64             `json:"max_ns"`
	Histogram []HistogramBucket `json:"histogram"`
}

// Metrics returns a snapshot of every operation's counters and histogram,
// sorted by operation name. Counters are loaded individually, so a snapshot
// taken under load is consistent per counter, not across counters.
func (t *Tracer) Metrics() []OpSnapshot {
	var out []OpSnapshot
	t.ops.Range(func(k, v any) bool {
		m := v.(*opMetrics)
		s := OpSnapshot{
			Op:     k.(string),
			Count:  m.count.Load(),
			Errors: m.errors.Load(),
			MaxNS:  m.maxNS.Load(),
		}
		if s.Count > 0 {
			s.MeanNS = m.sumNS.Load() / s.Count
		}
		for i := range m.buckets {
			if n := m.buckets[i].Load(); n > 0 {
				le := "+Inf"
				if i < len(bucketBounds) {
					le = bucketBounds[i].String()
				}
				s.Histogram = append(s.Histogram, HistogramBucket{Le: le, Count: n})
			}
		}
		out = append(out, s)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}
