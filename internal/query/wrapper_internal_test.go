package query

import (
	"strings"
	"testing"

	"repro/internal/codb"
	"repro/internal/gateway"
	"repro/internal/wtl"
)

// translate renders a function call's member fragment the way a member plan
// does: predicates resolved against the function's table, then pushed under
// the engine's capability profile.
func translate(d *codb.SourceDescriptor, fn *codb.ExportedFunction, preds []wtl.Condition) (string, error) {
	conds, err := resolveConds(fn, preds)
	if err != nil {
		return "", err
	}
	return buildFragmentExec(d, fn, conds, 0, gateway.CapsFor(d.Engine)).Native, nil
}

func TestWrapperSQLTranslation(t *testing.T) {
	fn := &codb.ExportedFunction{
		Name: "Funding", Returns: "real",
		Table: "ResearchProjects", ResultColumn: "Funding", ArgColumn: "Title",
	}
	d := &codb.SourceDescriptor{Wrapper: "WebTassiliOracle", Engine: "Oracle"}
	if name, oql := wrapperFor(d); name != "WebTassiliOracle" || oql {
		t.Errorf("wrapper = %s (oql %v)", name, oql)
	}
	sql, err := translate(d, fn, []wtl.Condition{
		{Column: "ResearchProjects.Title", Op: "=", Value: "AIDS and drugs", IsStr: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's exact translation (§2.3).
	want := "SELECT a.Funding FROM ResearchProjects a WHERE a.Title = 'AIDS and drugs'"
	if sql != want {
		t.Errorf("sql = %q, want %q", sql, want)
	}
	// No predicate.
	sql, err = translate(d, fn, nil)
	if err != nil || sql != "SELECT a.Funding FROM ResearchProjects a" {
		t.Errorf("no-predicate sql = %q, %v", sql, err)
	}
	// Multiple conjuncts, numeric literal, unqualified column.
	sql, err = translate(d, fn, []wtl.Condition{
		{Column: "Title", Op: "LIKE", Value: "AIDS%", IsStr: true},
		{Column: "ResearchProjects.Funding", Op: ">", Value: "100000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT a.Funding FROM ResearchProjects a WHERE a.Title LIKE 'AIDS%' AND a.Funding > 100000" {
		t.Errorf("sql = %q", sql)
	}
	// Quote escaping.
	sql, err = translate(d, fn, []wtl.Condition{
		{Column: "Title", Op: "=", Value: "O'Brien's study", IsStr: true},
	})
	if err != nil || !strings.Contains(sql, "'O''Brien''s study'") {
		t.Errorf("escaped sql = %q, %v", sql, err)
	}
	// Mismatched qualifier.
	if _, err := translate(d, fn, []wtl.Condition{
		{Column: "OtherTable.Title", Op: "=", Value: "x", IsStr: true},
	}); err == nil {
		t.Error("mismatched qualifier accepted")
	}
}

func TestWrapperQualifierNormalisation(t *testing.T) {
	fn := &codb.ExportedFunction{Table: "research_projects", ResultColumn: "funding"}
	sql, err := translate(&codb.SourceDescriptor{Engine: "Oracle"}, fn, []wtl.Condition{
		{Column: "ResearchProjects.Title", Op: "=", Value: "x", IsStr: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "a.Title = 'x'") {
		t.Errorf("sql = %q", sql)
	}
}

func TestWrapperOQLTranslation(t *testing.T) {
	fn := &codb.ExportedFunction{Table: "Callout", ResultColumn: "Hospital"}
	d := &codb.SourceDescriptor{Engine: "Ontos"}
	if name, oql := wrapperFor(d); name != "WebTassiliOntos" || !oql {
		t.Errorf("wrapper = %s (oql %v)", name, oql)
	}
	q, err := translate(d, fn, []wtl.Condition{
		{Column: "Callout.Suburb", Op: "=", Value: "Herston", IsStr: true},
	})
	if err != nil || q != "SELECT Hospital FROM Callout WHERE Suburb = 'Herston'" {
		t.Errorf("oql = %q, %v", q, err)
	}
}

func TestWrapperFallbackByEngine(t *testing.T) {
	if name, oql := wrapperFor(&codb.SourceDescriptor{Wrapper: "SomethingCustom", Engine: "DB2"}); name != "WebTassiliDB2" || oql {
		t.Errorf("fallback wrapper = %s (oql %v)", name, oql)
	}
	if name, oql := wrapperFor(&codb.SourceDescriptor{Wrapper: "WebTassiliObjectStore"}); name != "WebTassiliObjectStore" || !oql {
		t.Errorf("objectstore wrapper = %s (oql %v)", name, oql)
	}
}
