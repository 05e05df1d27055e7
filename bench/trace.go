package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/giop"
	"repro/internal/orb"
)

// Spans are recorded from outside the program: the runner wraps each op and
// each statement, and a benchmark-owned interceptor pair registered on the
// three ORBs (public hooks) wraps each client invocation and each servant
// dispatch. Ids travel down through ClientRequestInfo.Ctx and across the
// wire in a benchmark service-context entry. Invocations that carry no op
// id - gossip rounds, the detached close_cursor after a cancelled stream -
// are background traffic and are not recorded.

// span is one timed interval. Spans of one op share Op; Parent is the span
// that caused this one (op -> stmt -> client -> server -> nested client...).
type span struct {
	ID, Parent, Op uint64
	Kind           string // "op", "stmt", "client", "server"
	Name           string // statement kind or ORB operation
	Key            string // target object key (client and server spans)
	Start, End     int64  // ns since the recorder's epoch
	Err            bool   // the call failed or was cancelled
}

func (s *span) dur() int64 { return s.End - s.Start }

type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) nextID() uint64 { return r.ids.Add(1) }
func (r *recorder) now() int64     { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot copies what has been recorded so far; servant spans of cancelled
// calls may still trickle in afterwards and are left out.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type spanKey struct{}

// spanCtx rides in a context: the op a call belongs to and the span that
// issued it.
type spanCtx struct{ op, parent uint64 }

// benchServiceContext tags the benchmark's GIOP service-context entry
// ("FB" vendor tag): 8 bytes op id, 8 bytes client span id.
const benchServiceContext uint32 = 0x46420001

type pendingSpan struct {
	id, parent, op uint64
	start          int64
}

type slotKey struct{}

// interceptor implements orb.ClientInterceptor and orb.ServerInterceptor.
type interceptor struct{ rec *recorder }

func (it interceptor) SendRequest(ri *orb.ClientRequestInfo) {
	sc, ok := ri.Ctx.Value(spanKey{}).(spanCtx)
	if !ok {
		return
	}
	p := &pendingSpan{id: it.rec.nextID(), parent: sc.parent, op: sc.op, start: it.rec.now()}
	data := make([]byte, 16)
	binary.BigEndian.PutUint64(data, p.op)
	binary.BigEndian.PutUint64(data[8:], p.id)
	ri.AddServiceContext(benchServiceContext, data)
	ri.SetSlot(slotKey{}, p)
}

func (it interceptor) ReceiveReply(ri *orb.ClientRequestInfo, err error) {
	if p, _ := ri.Slot(slotKey{}).(*pendingSpan); p != nil {
		it.rec.add(span{ID: p.id, Parent: p.parent, Op: p.op, Kind: "client", Name: ri.Operation,
			Key: string(ri.ObjectKey), Start: p.start, End: it.rec.now(), Err: err != nil})
	}
}

func (it interceptor) ReceiveRequest(ri *orb.ServerRequestInfo) {
	data, ok := giop.GetServiceContext(ri.ServiceContexts, benchServiceContext)
	if !ok || len(data) != 16 {
		return
	}
	p := &pendingSpan{id: it.rec.nextID(), op: binary.BigEndian.Uint64(data),
		parent: binary.BigEndian.Uint64(data[8:]), start: it.rec.now()}
	// Calls the servant makes in turn (relay probes) parent onto its span.
	ri.Ctx = context.WithValue(ri.Ctx, spanKey{}, spanCtx{op: p.op, parent: p.id})
	ri.SetSlot(slotKey{}, p)
}

func (it interceptor) SendReply(ri *orb.ServerRequestInfo, err error) {
	if p, _ := ri.Slot(slotKey{}).(*pendingSpan); p != nil {
		it.rec.add(span{ID: p.id, Parent: p.parent, Op: p.op, Kind: "server", Name: ri.Operation,
			Key: string(ri.ObjectKey), Start: p.start, End: it.rec.now(), Err: err != nil})
	}
}

// install registers the interceptor pair on the fixture's three ORBs.
func (r *recorder) install(fx *fixture) {
	it := interceptor{rec: r}
	for _, p := range fedProducts {
		o := fx.fed.ORB(p)
		o.RegisterClientInterceptor(it)
		o.RegisterServerInterceptor(it)
	}
}

// writeJSONL writes one JSON object per span.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"kind":%q,"name":%q,"key":%s,"start_ns":%d,"end_ns":%d,"err":%t}`+"\n",
			s.ID, s.Parent, s.Op, s.Kind, s.Name, strconv.Quote(s.Key), s.Start, s.End, s.Err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type interval struct{ lo, hi int64 }

// unionLen is the length of the union of the intervals, each clipped to
// [lo, hi].
func unionLen(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	end := lo
	for _, v := range iv {
		if v.hi > hi {
			v.hi = hi
		}
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			end = v.hi
		}
	}
	return total
}

// spanMetrics derives the span-based layer metrics over the ops whose op
// span is present. A layer's self time is its span minus the union of its
// children: the query layer's is statement wall minus the union of the
// client calls it issued; the wire's is a client span minus its servant
// span (marshal, framing, socket, demux, reply decode).
func spanMetrics(spans []span) map[string]float64 {
	byID := make(map[uint64]*span, len(spans))
	children := make(map[uint64][]*span)
	ops := 0
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Kind == "op" {
			ops++
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var opWall, querySelf, wire, blocking, codbMs, isiMs int64
	var codbCalls, isiCalls, fetches, batches int
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case "op":
			opWall += s.dur()
		case "stmt":
			if byID[s.Parent] == nil {
				continue
			}
			var calls, served []interval
			for _, c := range children[s.ID] {
				calls = append(calls, interval{c.Start, c.End})
				for _, sv := range children[c.ID] {
					served = append(served, interval{max(sv.Start, c.Start), min(sv.End, c.End)})
				}
			}
			inCalls := unionLen(calls, s.Start, s.End)
			querySelf += s.dur() - inCalls
			// Blocking wire time: some call is outstanding and no servant
			// of this statement is running, so the wire is all that stands
			// between the user and the answer.
			blocking += inCalls - unionLen(served, s.Start, s.End)
		case "client":
			if s.Err {
				continue
			}
			for _, sv := range children[s.ID] {
				if sv.Kind == "server" {
					wire += s.dur() - (min(sv.End, s.End) - max(sv.Start, s.Start))
				}
			}
		case "server":
			if byID[s.Op] == nil {
				continue
			}
			switch {
			case strings.HasPrefix(s.Key, "CoDatabase/"):
				codbMs += s.dur()
				codbCalls++
			case strings.HasPrefix(s.Key, "ISI/"):
				isiMs += s.dur()
				isiCalls++
				// A data call returns one batch of rows: the first with
				// open_cursor (or a whole-result query), the rest each
				// with a fetch_cursor round trip.
				switch s.Name {
				case "fetch_cursor":
					fetches++
					batches++
				case "open_cursor", "query":
					batches++
				}
			}
		}
	}
	n := float64(max(ops, 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	return map[string]float64{
		"query.self_ms_per_op":      ms(querySelf),
		"orb.wire_ms_per_op":        ms(wire),
		"orb.wire_blocking_share":   float64(blocking) / float64(max(opWall, 1)),
		"codb.servant_ms_per_op":    ms(codbMs),
		"codb.calls_per_op":         float64(codbCalls) / n,
		"gateway.servant_ms_per_op": ms(isiMs),
		"gateway.calls_per_op":      float64(isiCalls) / n,
		"cursor.fetches_per_op":     float64(fetches) / n,
		"cursor.batches_per_op":     float64(batches) / n, // not reported; divides rows moved
	}
}
