package medworld

import (
	"context"
	"strings"
	"testing"

	"repro/internal/orb"
	"repro/internal/trace"
)

// TestHealthcareQueryEndToEndTrace runs the Figure 6 native query with
// tracing enabled on every federation ORB and colocation disabled, and
// asserts that one trace covers the whole path: the WebTassili statement
// span, the client-side ORB invocation, the IIOP hop into the ISI servant
// on the remote ORB, and the gateway driver call — all under the caller's
// trace ID. QUT lives on OrbixWeb and the Royal Brisbane Hospital's Oracle
// ISI on VisiBroker, so the query genuinely crosses ORB products on a
// socket.
func TestHealthcareQueryEndToEndTrace(t *testing.T) {
	w, err := Build(orb.Options{DisableColocation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()

	tr := trace.New(trace.Options{Capacity: 4096})
	for _, p := range []orb.Product{orb.Orbix, orb.OrbixWeb, orb.VisiBroker} {
		w.ORB(p).EnableTracing(tr)
	}

	qut, _ := w.Node(QUT)
	s := qut.NewSession()
	if _, err := s.Execute(context.Background(), "Connect To Coalition Research;"); err != nil {
		t.Fatal(err)
	}

	ctx, root := tr.StartSpan(context.Background(), "session")
	resp, err := s.Execute(ctx, `Query Royal Brisbane Hospital Using Native "select * from medical_students";`)
	root.End(err)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(resp.Result.Rows))
	}

	traceID := root.Context().Trace.String()
	spans := tr.TraceSpans(traceID)
	byID := map[string]trace.SpanRecord{}
	for _, sp := range spans {
		if sp.Trace != traceID {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.Trace, traceID)
		}
		byID[sp.Span] = sp
	}

	// The driver-level span: the ISI servant's gateway call on the remote
	// node. RBH runs Oracle and remote queries travel over the cursor
	// protocol, so the span is isi.cursor:Oracle.
	var driver *trace.SpanRecord
	for i := range spans {
		if spans[i].Name == "isi.cursor:Oracle" {
			driver = &spans[i]
		}
	}
	if driver == nil {
		names := make([]string, len(spans))
		for i, sp := range spans {
			names[i] = sp.Name
		}
		t.Fatalf("no isi.cursor:Oracle span in trace; spans: %v", names)
	}

	// The driver span says what the open shipped and what the cursor holds
	// for later pages: a native query asks for everything at once.
	attrs := map[string]string{}
	for _, a := range driver.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["rows"] != "4" || attrs["held"] != "0" {
		t.Fatalf("isi.cursor attributes = %v, want rows=4 held=0", attrs)
	}

	// Walk the driver span's ancestry back to the session root. It must pass
	// through the servant dispatch (server:query, transport=iiop — a real
	// socket hop), the client invocation (client:query) and the WebTassili
	// statement span.
	sawServer, sawClient, sawStmt := false, false, false
	cur := *driver
	for cur.Span != root.Context().Span.String() {
		parent, ok := byID[cur.Parent]
		if !ok {
			t.Fatalf("span %s has dangling parent %s", cur.Name, cur.Parent)
		}
		cur = parent
		switch {
		case cur.Name == "server:open_cursor":
			sawServer = true
			for _, a := range cur.Attrs {
				if a.Key == "transport" && a.Value != "iiop" {
					t.Fatalf("server:open_cursor transport = %s, want iiop", a.Value)
				}
			}
		case cur.Name == "client:open_cursor":
			sawClient = true
		case strings.HasPrefix(cur.Name, "query:"):
			sawStmt = true
		}
	}
	if !sawServer || !sawClient || !sawStmt {
		t.Fatalf("ancestry missing layers: server=%v client=%v stmt=%v (spans: %+v)",
			sawServer, sawClient, sawStmt, spans)
	}
}
