package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/codb"
	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/orb"
	"repro/internal/wtl"
)

func relDesc(engine string) *codb.SourceDescriptor {
	return &codb.SourceDescriptor{Name: "D", Engine: engine, Wrapper: "WebTassili" + engine}
}

var planFn = &codb.ExportedFunction{
	Name: "V", Returns: "int",
	Table: "r", ResultColumn: "v", ArgColumn: "k",
}

func TestNumericLiteral(t *testing.T) {
	ok := []string{"0", "7", "19980101", "3.14", "10.5"}
	bad := []string{"", ".", "3.", ".5", "1.2.3", "-1", "+1", "1e5", "abc", "3a", "true"}
	for _, s := range ok {
		if !numericLiteral(s) {
			t.Errorf("numericLiteral(%q) = false", s)
		}
	}
	for _, s := range bad {
		if numericLiteral(s) {
			t.Errorf("numericLiteral(%q) = true", s)
		}
	}
}

func TestPushableCond(t *testing.T) {
	full := gateway.Capabilities{Predicates: true, Like: true, Limit: true}
	noLike := gateway.Capabilities{Predicates: true}
	cases := []struct {
		c    wtl.Condition
		caps gateway.Capabilities
		want bool
	}{
		{wtl.Condition{Column: "k", Op: "=", Value: "a", IsStr: true}, full, true},
		{wtl.Condition{Column: "v", Op: ">=", Value: "2000"}, full, true},
		{wtl.Condition{Column: "k", Op: "LIKE", Value: "k%", IsStr: true}, full, true},
		// mSQL-shaped profile: LIKE stays home even when quoted.
		{wtl.Condition{Column: "k", Op: "LIKE", Value: "k%", IsStr: true}, noLike, false},
		// Unquoted LIKE pattern would render as a bare word: never pushed.
		{wtl.Condition{Column: "k", Op: "LIKE", Value: "k%"}, full, false},
		// Bare words and exotic numerics would be fragment syntax errors.
		{wtl.Condition{Column: "k", Op: "=", Value: "abc"}, full, false},
		{wtl.Condition{Column: "v", Op: "=", Value: "1e5"}, full, false},
		{wtl.Condition{Column: "v", Op: "=", Value: "-1"}, full, false},
		// Zero profile (unknown engine, or pushdown off): nothing ships.
		{wtl.Condition{Column: "k", Op: "=", Value: "a", IsStr: true}, gateway.Capabilities{}, false},
	}
	for _, tc := range cases {
		if got := pushableCond(tc.c, tc.caps); got != tc.want {
			t.Errorf("pushableCond(%+v, %+v) = %v, want %v", tc.c, tc.caps, got, tc.want)
		}
	}
}

func TestBuildFragmentExecPerEngine(t *testing.T) {
	q := &wtl.FuncQuery{
		Function: "V", ArgCol: "R.K",
		Preds: []wtl.Condition{
			{Column: "R.K", Op: "LIKE", Value: "k%", IsStr: true},
			{Column: "R.V", Op: ">", Value: "100"},
		},
		Source: "c", Limit: 5,
	}

	// Oracle: both conjuncts push, LIMIT pushes (nothing residual).
	mp, err := buildMemberPlan(relDesc("Oracle"), planFn, q, true)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Exec.Pushed != 2 || len(mp.Exec.Residual) != 0 || !mp.Exec.LimitPushed {
		t.Fatalf("Oracle exec = %+v", mp.Exec)
	}
	if want := "SELECT a.v FROM r a WHERE a.K LIKE 'k%' AND a.V > 100 LIMIT 5"; mp.Exec.Native != want {
		t.Errorf("Oracle fragment = %q, want %q", mp.Exec.Native, want)
	}
	// The bare fallback pushes nothing and widens the projection for both
	// residual conjuncts.
	if mp.Bare.Pushed != 0 || mp.Bare.LimitPushed || len(mp.Bare.Residual) != 2 || mp.Bare.NCols != 2 {
		t.Fatalf("Oracle bare = %+v", mp.Bare)
	}
	if want := "SELECT a.v, a.K FROM r a"; mp.Bare.Native != want {
		t.Errorf("bare fragment = %q, want %q", mp.Bare.Native, want)
	}

	// mSQL: no LIKE, so that conjunct is residual — and the residual blocks
	// the LIMIT even though the dialect's profile would otherwise carry it.
	mp, err = buildMemberPlan(relDesc("mSQL"), planFn, q, true)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Exec.Pushed != 1 || len(mp.Exec.Residual) != 1 || mp.Exec.LimitPushed {
		t.Fatalf("mSQL exec = %+v", mp.Exec)
	}
	if !strings.Contains(mp.Exec.Native, "a.V > 100") || strings.Contains(mp.Exec.Native, "LIKE") {
		t.Errorf("mSQL fragment = %q", mp.Exec.Native)
	}

	// ObjectStore: OQL family, predicates and LIKE push, no LIMIT in OQL.
	mp, err = buildMemberPlan(relDesc("ObjectStore"), planFn, q, true)
	if err != nil {
		t.Fatal(err)
	}
	if !mp.Exec.OQL || mp.Exec.Pushed != 2 || mp.Exec.LimitPushed {
		t.Fatalf("ObjectStore exec = %+v", mp.Exec)
	}
	if want := "SELECT v FROM r WHERE K LIKE 'k%' AND V > 100"; mp.Exec.Native != want {
		t.Errorf("OQL fragment = %q, want %q", mp.Exec.Native, want)
	}

	// Pushdown off: Exec IS the bare fragment (shared, not rebuilt).
	mp, err = buildMemberPlan(relDesc("Oracle"), planFn, q, false)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Exec.Pushed != 0 || mp.Exec.LimitPushed || mp.Exec.Native != mp.Bare.Native {
		t.Fatalf("pushdown-off exec = %+v", mp.Exec)
	}
}

func TestResidualMatchFollowsEngineSemantics(t *testing.T) {
	str := func(s string) idl.Any { return idl.Any{Kind: idl.KindString, Str: s} }
	num := func(n int64) idl.Any { return idl.Any{Kind: idl.KindLong, Int: n} }
	like := wtl.Condition{Column: "k", Op: "LIKE", Value: "k0%", IsStr: true}
	eqNum := wtl.Condition{Column: "v", Op: "=", Value: "3"}
	// match applies ex to a one-row batch holding the given values.
	match := func(ex *fragmentExec, row ...idl.Any) bool {
		res := &gateway.Result{Columns: make([]string, len(row)), Rows: [][]idl.Any{row}}
		b, err := gateway.NewResultIter(res, 0).Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer b.Release()
		return residualMatch(b, 0, ex)
	}

	rel := &fragmentExec{Residual: []wtl.Condition{like}, ResidualIdx: []int{1}, NCols: 2}
	if !match(rel, num(7), str("k01")) {
		t.Error("relational LIKE residual missed a matching row")
	}
	if match(rel, num(7), str("zz")) {
		t.Error("relational LIKE residual matched a non-matching row")
	}

	// The relational engine compares mismatched kinds through their rendered
	// strings (INT 3 = '3'); the OQL engine calls that a non-match. The
	// compensator must reproduce whichever engine the fragment ran on.
	relEq := &fragmentExec{Residual: []wtl.Condition{eqNum}, ResidualIdx: []int{0}, NCols: 1}
	if !match(relEq, num(3)) {
		t.Error("relational numeric equality residual missed")
	}
	ooEq := &fragmentExec{OQL: true, Residual: []wtl.Condition{eqNum}, ResidualIdx: []int{0}, NCols: 1}
	if !match(ooEq, num(3)) {
		t.Error("OQL numeric equality residual missed")
	}
	if match(ooEq, str("3")) {
		t.Error("OQL residual matched across kinds; the engine would not")
	}
	if !match(relEq, str("3")) {
		t.Error("relational residual must match across kinds like relational.Compare")
	}

	// A residual column the batch does not have is a non-match, not a panic.
	if match(rel, num(7)) {
		t.Error("short row matched")
	}
}

func TestCondMatchOpMatrix(t *testing.T) {
	num := func(n int64) idl.Any { return idl.Any{Kind: idl.KindLong, Int: n} }
	dbl := func(f float64) idl.Any { return idl.Any{Kind: idl.KindDouble, Float: f} }
	boolean := func(b bool) idl.Any { return idl.Any{Kind: idl.KindBool, Bool: b} }
	cond := func(op, val string) wtl.Condition { return wtl.Condition{Column: "v", Op: op, Value: val} }

	cases := []struct {
		oql  bool
		v    idl.Any
		c    wtl.Condition
		want bool
	}{
		// Every comparison operator, both families, integer literals.
		{false, num(3), cond("=", "3"), true},
		{false, num(3), cond("<>", "3"), false},
		{false, num(2), cond("<", "3"), true},
		{false, num(3), cond("<=", "3"), true},
		{false, num(4), cond(">", "3"), true},
		{false, num(3), cond(">=", "4"), false},
		{true, num(3), cond("=", "3"), true},
		{true, num(3), cond("<>", "4"), true},
		{true, num(2), cond("<", "3"), true},
		{true, num(3), cond("<=", "2"), false},
		{true, num(4), cond(">", "3"), true},
		{true, num(4), cond(">=", "4"), true},
		// Float literals against float values (both families type "2.5" as a
		// float because of the dot).
		{false, dbl(2.5), cond("=", "2.5"), true},
		{false, dbl(2.5), cond(">", "2.4"), true},
		{true, dbl(2.5), cond("=", "2.5"), true},
		{true, dbl(2.5), cond("<", "2.4"), false},
		// Mixed numeric kinds compare numerically in the relational family.
		{false, num(3), cond("=", "3.0"), true},
		// Bool literals.
		{false, boolean(true), cond("=", "true"), true},
		{true, boolean(true), cond("=", "true"), true},
		{true, boolean(false), cond("<>", "true"), true},
		// A NULL (KindVoid/absent) never satisfies a relational WHERE.
		{false, idl.Any{}, cond("=", "0"), false},
		// Bare word literal: OQL cannot type it — no match; relational types
		// it as text deterministically.
		{true, num(3), cond("=", "abc"), false},
		// Unknown operator is a non-match, not a panic.
		{false, num(3), cond("~", "3"), false},
	}
	for _, tc := range cases {
		if got := condMatch(tc.oql, tc.v, tc.c); got != tc.want {
			t.Errorf("condMatch(oql=%v, %+v, %+v) = %v, want %v", tc.oql, tc.v, tc.c, got, tc.want)
		}
	}
}

func TestPlanFingerprintDistinguishesModeAndText(t *testing.T) {
	q1, err := wtl.Parse(`V(R.K, (R.K = "a")) On Coalition c;`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := wtl.Parse(`V(R.K, (R.K = "a")) On Coalition c Limit 3;`)
	if err != nil {
		t.Fatal(err)
	}
	a := planFingerprint(q1.(*wtl.FuncQuery), true)
	b := planFingerprint(q1.(*wtl.FuncQuery), false)
	c := planFingerprint(q2.(*wtl.FuncQuery), true)
	if a == b || a == c || b == c {
		t.Errorf("fingerprints collide: on=%x off=%x limit=%x", a, b, c)
	}
	if again := planFingerprint(q1.(*wtl.FuncQuery), true); again != a {
		t.Errorf("fingerprint unstable: %x then %x", a, again)
	}
}

func TestIsCapabilityRejection(t *testing.T) {
	if isCapabilityRejection(nil) {
		t.Error("nil error classified as rejection")
	}
	for _, msg := range []string{
		"relational: mSQL does not support LIKE (use RLIKE/CLIKE)",
		`oodb: unexpected "LIMIT" after query`,
	} {
		if !isCapabilityRejection(errors.New(msg)) {
			t.Errorf("engine rejection not recognised: %q", msg)
		}
	}
	if isCapabilityRejection(errors.New("gateway: no source named X")) {
		t.Error("unrelated error classified as rejection")
	}
	// Transport failures are never capability rejections, whatever their
	// detail text says.
	se := &orb.SystemException{Name: "COMM_FAILURE", Detail: "peer does not support frobnication, unexpected EOF"}
	if isCapabilityRejection(se) {
		t.Error("SystemException classified as rejection")
	}
	if isCapabilityRejection(fmt.Errorf("call failed: %w", se)) {
		t.Error("wrapped SystemException classified as rejection")
	}
}
