package query

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/wtl"
)

// scriptedConn is a gateway.Conn whose QueryCursor answers from a script: one
// entry per expected call, in order. It records the statements it was asked
// to run and hands back the iterator it served, so a test can see how far
// the runner pulled and whether it closed.
type scriptedConn struct {
	gateway.Conn // unused methods panic on the nil interface: the runner must not call them
	script       []scriptedReply
	asked        []string
	last         *scriptedIter
}

type scriptedReply struct {
	err  error
	cols []string
	rows [][]idl.Any
}

func (c *scriptedConn) QueryCursor(_ context.Context, q string, batch int) (gateway.RowIter, error) {
	r := c.script[len(c.asked)]
	c.asked = append(c.asked, q)
	if r.err != nil {
		return nil, r.err
	}
	// The batches are as wide as the rows even when the reply names no columns.
	width := 0
	if len(r.rows) > 0 {
		width = len(r.rows[0])
	}
	c.last = &scriptedIter{cols: r.cols,
		RowIter: gateway.NewResultIter(&gateway.Result{Columns: make([]string, width), Rows: r.rows}, batch)}
	return c.last, nil
}

type scriptedIter struct {
	gateway.RowIter
	cols   []string
	pulled int
	closed bool
}

func (it *scriptedIter) Columns() []string { return it.cols }
func (it *scriptedIter) Close() error      { it.closed = true; return it.RowIter.Close() }
func (it *scriptedIter) Next(ctx context.Context) (*gateway.Batch, error) {
	b, err := it.RowIter.Next(ctx)
	if err == nil {
		it.pulled += b.Len()
	}
	return b, err
}

func TestRunFragment(t *testing.T) {
	num := func(n int64) idl.Any { return idl.Long(n) }
	str := idl.String
	q := &wtl.FuncQuery{
		Function: "V", ArgCol: "R.K", Source: "D",
		Preds: []wtl.Condition{{Column: "R.K", Op: "LIKE", Value: "k%", IsStr: true}},
	}
	// Oracle takes the LIKE (fully pushed); mSQL keeps it residual, fetching
	// [v, K] rows; the Oracle plan's Bare is that same widened fragment.
	oracle, err := buildMemberPlan(relDesc("Oracle"), planFn, q, true)
	if err != nil {
		t.Fatal(err)
	}
	msql, err := buildMemberPlan(relDesc("mSQL"), planFn, q, true)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Exec.Pushed != 1 || len(msql.Exec.Residual) != 1 || len(oracle.Bare.Residual) != 1 {
		t.Fatalf("fixture plans: oracle %+v, msql %+v", oracle.Exec, msql.Exec)
	}
	// The short row reads as NULLs, which no conjunct accepts.
	wide := [][]idl.Any{{num(1000), str("k1")}, {num(7), str("zz")}, {}, {num(5), str("k2")}}
	rejection := errors.New(`relational: mSQL does not support LIKE`)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name   string
		ctx    context.Context
		mp     *memberPlan
		script []scriptedReply
		batch  int // first page asked of the source (0: everything at once)
		stopAt int // consumer returns false once it holds this many values (0: never)

		values   []int64
		asked    []string
		run      fragmentRun
		wantErr  string
		noCursor bool // no iterator was ever opened
	}{
		{
			name: "fully pushed: rows pass through", ctx: context.Background(), mp: &oracle,
			script: []scriptedReply{{cols: []string{"V"}, rows: [][]idl.Any{{num(1)}, {num(2)}, {num(3)}}}},
			values: []int64{1, 2, 3}, asked: []string{oracle.Exec.Native},
			run: fragmentRun{Column: "V", Moved: 3, Pages: 1},
		},
		{
			name: "residual conjunct: filtered and projected", ctx: context.Background(), mp: &msql,
			script: []scriptedReply{{rows: wide}}, // no column names: the function's result column stands in
			values: []int64{1000, 5}, asked: []string{msql.Exec.Native},
			run: fragmentRun{Column: "v", Moved: 4, Pages: 1},
		},
		{
			name: "pushed clause rejected: one retry with Bare", ctx: context.Background(), mp: &oracle,
			script: []scriptedReply{{err: rejection}, {cols: []string{"v", "K"}, rows: wide}},
			values: []int64{1000, 5}, asked: []string{oracle.Exec.Native, oracle.Bare.Native},
			run: fragmentRun{Column: "v", Moved: 4, Pages: 1, Fallback: true},
		},
		{
			name: "Bare rejected too: no second retry", ctx: context.Background(), mp: &oracle,
			script: []scriptedReply{{err: rejection}, {err: rejection}},
			asked:  []string{oracle.Exec.Native, oracle.Bare.Native},
			run:    fragmentRun{Fallback: true}, wantErr: "query: D: relational: mSQL does not support LIKE", noCursor: true,
		},
		{
			name: "rejection while ctx is done: no retry", ctx: cancelled, mp: &oracle,
			script: []scriptedReply{{err: rejection}},
			asked:  []string{oracle.Exec.Native}, wantErr: "does not support", noCursor: true,
		},
		{
			name: "nothing pushed: a rejection is just an error", ctx: context.Background(), mp: &msql,
			script: []scriptedReply{{err: rejection}},
			asked:  []string{msql.Exec.Native}, wantErr: "does not support", noCursor: true,
		},
		{
			name: "other failures do not retry", ctx: context.Background(), mp: &oracle,
			script: []scriptedReply{{err: errors.New("gateway: no source named D")}},
			asked:  []string{oracle.Exec.Native}, wantErr: "no source named D", noCursor: true,
		},
		{
			name: "consumer stops after the first page", ctx: context.Background(), mp: &oracle, batch: 2, stopAt: 2,
			script: []scriptedReply{{cols: []string{"v"}, rows: [][]idl.Any{{num(1)}, {num(2)}, {num(3)}, {num(4)}, {num(5)}}}},
			values: []int64{1, 2}, asked: []string{oracle.Exec.Native},
			run: fragmentRun{Column: "v", Moved: 2, Pages: 1},
		},
		{
			name: "pages grow: 2, then 4 of the 5 rows", ctx: context.Background(), mp: &msql, batch: 2,
			script: []scriptedReply{{cols: []string{"v", "K"}, rows: append(append([][]idl.Any{}, wide...), wide[0])}},
			values: []int64{1000, 5, 1000}, asked: []string{msql.Exec.Native},
			run: fragmentRun{Column: "v", Moved: 5, Pages: 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := (&Processor{}).NewSession()
			conn := &scriptedConn{script: tc.script}
			var values []int64
			var run fragmentRun
			live := gateway.LiveBatches()
			err := s.runFragment(tc.ctx, conn, tc.mp, &tc.mp.Exec, tc.batch, &run, func(b *gateway.Batch) bool {
				defer b.Release()
				for i := 0; i < b.Len(); i++ {
					values = append(values, b.Value(0, i).Int)
				}
				return tc.stopAt == 0 || len(values) < tc.stopAt
			})
			if now := gateway.LiveBatches(); now != live {
				t.Errorf("batches out of the pool: %d before the run, %d after", live, now)
			}
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("error = %v, want %q", err, tc.wantErr)
			}
			if !reflect.DeepEqual(values, tc.values) {
				t.Errorf("values = %v, want %v", values, tc.values)
			}
			if !reflect.DeepEqual(conn.asked, tc.asked) {
				t.Errorf("statements = %q, want %q", conn.asked, tc.asked)
			}
			if run != tc.run {
				t.Errorf("report = %+v, want %+v", run, tc.run)
			}
			traced := false
			for _, e := range s.Trace() {
				traced = traced || strings.Contains(e.Msg, "rejected pushed fragment")
			}
			if traced != run.Fallback {
				t.Errorf("fallback traced = %v, reported = %v", traced, run.Fallback)
			}
			if tc.noCursor {
				if conn.last != nil {
					t.Error("an iterator was opened")
				}
				return
			}
			if !conn.last.closed {
				t.Error("iterator left open")
			}
			if conn.last.pulled != run.Moved {
				t.Errorf("rows moved = %d, iterator pulled %d", run.Moved, conn.last.pulled)
			}
		})
	}
}
