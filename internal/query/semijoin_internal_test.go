package query

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/codb"
	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/orb"
)

// TestSemiJoinAdmitFoldsKeyKinds: the probe filter answers the same for every
// value that folds into one key — integers of any width, a double holding an
// integer — and never admits a NULL, a key of another kind (the number 2 is
// not the string "2", true is not 1) or a Bloom false positive, and it builds
// no string to find out.
func TestSemiJoinAdmitFoldsKeyKinds(t *testing.T) {
	build := map[string]idl.Any{}
	for _, v := range []idl.Any{idl.Long(2), idl.String("a"), idl.Bool(true), idl.Double(2.5), idl.Double(-1e16), idl.Null()} {
		addKey(build, v)
	}
	if len(build) != 5 {
		t.Fatalf("%d keys from five keyed values and a NULL", len(build))
	}
	for _, tc := range []struct {
		v    idl.Any
		want bool
	}{
		{idl.Long(2), true},
		{idl.Any{Kind: idl.KindShort, Int: 2}, true},
		{idl.Any{Kind: idl.KindULong, Int: 2}, true},
		{idl.Double(2.0), true},
		{idl.Any{Kind: idl.KindFloat, Float: 2}, true},
		{idl.Double(2.5), true},
		{idl.Double(-1e16), true},
		{idl.Long(3), false},
		{idl.Double(2.25), false},
		{idl.String("2"), false},
		{idl.String("a"), true},
		{idl.String("A"), false},
		{idl.String(""), false},
		{idl.Bool(true), true},
		{idl.Bool(false), false},
		{idl.Long(1), false},
		{idl.Null(), false},
		{idl.Any{Kind: idl.KindStruct}, false},
	} {
		for _, bloom := range []bool{false, true} {
			f := &semiJoinFilter{exact: build}
			if bloom {
				f.bloom = newBloomFilter(len(build), semiJoinBloomBits)
				for k := range build {
					f.bloom.Add(k)
				}
			}
			if got := f.admit(tc.v); got != tc.want {
				t.Errorf("admit(%v), bloom %v = %v, want %v", tc.v, bloom, got, tc.want)
			}
			if allocs := testing.AllocsPerRun(100, func() { f.admit(tc.v) }); allocs != 0 {
				t.Errorf("admit(%v), bloom %v allocates %.0f objects", tc.v, bloom, allocs)
			}
		}
	}
}

// memberConn is an ISI's engine side for the build-side tests: its rows, and
// whether its cursor fails once the first page has gone.
type memberConn struct {
	gateway.Conn // unused methods panic on the nil interface
	rows         [][]idl.Any
	dies         bool
}

func (c *memberConn) QueryCursor(_ context.Context, _ string, batch int) (gateway.RowIter, error) {
	it := gateway.NewResultIter(&gateway.Result{Columns: []string{"v"}, Rows: c.rows}, batch)
	if c.dies {
		return &dyingIter{RowIter: it}, nil
	}
	return it, nil
}

// dyingIter serves its first batch and fails the next fetch: a member that
// dies mid-stream. It tells the servant nothing about exhaustion, so the
// servant keeps a cursor open after the first page.
type dyingIter struct {
	gateway.RowIter
	served bool
}

func (it *dyingIter) Next(ctx context.Context) (*gateway.Batch, error) {
	if it.served {
		return nil, errors.New("member died")
	}
	it.served = true
	return it.RowIter.Next(ctx)
}

// sideFixture serves one ISI per member from an in-process ORB and returns a
// session and the coalition plan over them.
func sideFixture(t *testing.T, members ...*memberConn) (*Session, *queryPlan) {
	t.Helper()
	o := orb.New(orb.Options{})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	home, err := o.Activate("CoDatabase/Home", codb.NewServant(codb.New("Home")))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ORB: o, Home: "Home", Local: codb.NewClient(o.Resolve(home))})
	if err != nil {
		t.Fatal(err)
	}
	plan := &queryPlan{Coalition: "C", Function: "V"}
	for i, m := range members {
		name := fmt.Sprintf("M%d", i)
		servant, _ := gateway.NewISIServant(m, "Oracle", name, nil)
		ior, err := o.Activate("ISI/"+name, servant)
		if err != nil {
			t.Fatal(err)
		}
		plan.Members = append(plan.Members, memberPlan{Fn: planFn, Exec: fragmentExec{Native: "q", NCols: 1},
			D: &codb.SourceDescriptor{Name: name, Engine: "Oracle", ISIRef: ior.String()}})
	}
	return p.NewSession(), plan
}

func longs(from, to int, v func(j int) idl.Any) [][]idl.Any {
	var rows [][]idl.Any
	for j := from; j < to; j++ {
		rows = append(rows, []idl.Any{v(j)})
	}
	return rows
}

// TestSemiJoinBuildSideDropsDeadMembersKeys: a build member that dies after
// its first page contributes no key, even a key it was the first to deliver
// and a later member delivers again, and the key-only drain answers what the
// materialised one does, representatives included.
func TestSemiJoinBuildSideDropsDeadMembersKeys(t *testing.T) {
	long := func(j int) idl.Any { return idl.Long(int64(j)) }
	double := func(j int) idl.Any { return idl.Double(float64(j)) }
	s, plan := sideFixture(t,
		&memberConn{rows: longs(0, 100, long)},
		// Its first page is 50..113: 50..99 are M0's keys already, 100..113
		// are its own until it dies.
		&memberConn{rows: longs(50, 250, long), dies: true},
		&memberConn{rows: longs(110, 130, double)},
	)
	ctx := context.Background()
	keysOnly, err := s.drainSide(ctx, plan, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := keysOnly.statuses[1]; st.OK() || keysOnly.degraded != 1 {
		t.Fatalf("the dying member's status = %+v, degraded = %d", st, keysOnly.degraded)
	}
	want := map[string]idl.Any{}
	for j := 0; j < 100; j++ {
		addKey(want, long(j))
	}
	for j := 110; j < 130; j++ {
		addKey(want, double(j))
	}
	if !reflect.DeepEqual(keysOnly.keys, want) {
		t.Fatalf("key-only build side: %d keys, want %d: %v", len(keysOnly.keys), len(want), keysOnly.keys)
	}
	materialised, err := s.drainSide(ctx, plan, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(materialised.keys, keysOnly.keys) {
		t.Fatalf("the materialised build side keys %v, the key-only one %v", materialised.keys, keysOnly.keys)
	}
	if len(materialised.rows) != 120 || keysOnly.rows != nil {
		t.Fatalf("rows kept: %d materialised, %d key-only", len(materialised.rows), len(keysOnly.rows))
	}
}

// TestSemiJoinBuildSideAllocations guards the key-only drain: over N rows that
// repeat a few keys it allocates a bounded number of objects per page, not a
// key string or a [source, value] row per row, and a small fraction of the
// bytes the materialised drain does, less per row than one boxed value.
func TestSemiJoinBuildSideAllocations(t *testing.T) {
	const perMember = 4096
	mod := func(j int) idl.Any { return idl.Long(int64(j % 16)) }
	s, plan := sideFixture(t, &memberConn{rows: longs(0, perMember, mod)}, &memberConn{rows: longs(0, perMember, mod)})
	ctx := context.Background()
	drain := func(keepRows bool) func() {
		return func() {
			side, err := s.drainSide(ctx, plan, nil, nil, keepRows)
			if err != nil || len(side.keys) != 16 {
				t.Fatalf("drain: %v, %d keys", err, len(side.keys))
			}
		}
	}
	bytesPerRun := func(f func()) float64 {
		const runs = 20
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const rows = 2 * perMember
	if allocs := testing.AllocsPerRun(20, drain(false)); allocs > rows/8 {
		t.Errorf("a key-only drain of %d rows allocates %.0f objects", rows, allocs)
	}
	keysOnly, materialised := bytesPerRun(drain(false)), bytesPerRun(drain(true))
	t.Logf("%d rows: key-only drain %.0f B, materialised %.0f B", rows, keysOnly, materialised)
	if perRow := keysOnly / rows; perRow >= float64(unsafe.Sizeof(idl.Any{})) {
		t.Errorf("a key-only drain allocates %.0f B a row, a boxed value is %d", perRow, unsafe.Sizeof(idl.Any{}))
	}
	if keysOnly*4 > materialised {
		t.Errorf("a key-only drain allocates %.0f B, the materialised one %.0f B", keysOnly, materialised)
	}
}
