package oodb

import (
	"strings"
	"testing"
)

func newOQLDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB("oql")
	must := func(_ *Class, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineClass("Callout", "",
		Attribute{Name: "Suburb", Type: AttrString},
		Attribute{Name: "Priority", Type: AttrInt},
		Attribute{Name: "Weight", Type: AttrFloat},
		Attribute{Name: "Urgent", Type: AttrBool},
	))
	must(db.DefineClass("NightCallout", "Callout"))
	rows := []map[string]any{
		{"Suburb": "Herston", "Priority": 1, "Weight": 1.5, "Urgent": true},
		{"Suburb": "Chermside", "Priority": 2, "Weight": 2.5, "Urgent": false},
		{"Suburb": "Herston", "Priority": 3, "Weight": 0.5, "Urgent": false},
	}
	for _, r := range rows {
		if _, err := db.NewObject("Callout", r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.NewObject("NightCallout", map[string]any{
		"Suburb": "Kedron", "Priority": 1, "Weight": 9.0, "Urgent": true}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestOQLSelectStar: SELECT * is refused by name, since a fragment names its
// attributes; naming them all reads every attribute, shallow by default.
func TestOQLSelectStar(t *testing.T) {
	db := newOQLDB(t)
	if _, _, err := Query(db, "SELECT * FROM Callout"); err == nil || !strings.Contains(err.Error(), "SELECT * is not supported") {
		t.Fatalf("SELECT *: %v", err)
	}
	cols, rows, err := Query(db, "SELECT Suburb, Priority, Weight, Urgent FROM Callout")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 {
		t.Errorf("cols = %v", cols)
	}
	// Shallow by default: the NightCallout instance is excluded.
	if len(rows) != 3 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestOQLDeep(t *testing.T) {
	db := newOQLDB(t)
	_, rows, err := Query(db, "SELECT Suburb FROM Callout DEEP")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("deep rows = %d", len(rows))
	}
}

func TestOQLWhereOperators(t *testing.T) {
	db := newOQLDB(t)
	cases := []struct {
		q    string
		want int
	}{
		{"SELECT Suburb FROM Callout WHERE Suburb = 'Herston'", 2},
		{"SELECT Suburb FROM Callout WHERE Suburb <> 'Herston'", 1},
		{"SELECT Suburb FROM Callout WHERE Priority > 1", 2},
		{"SELECT Suburb FROM Callout WHERE Priority >= 2 AND Suburb = 'Herston'", 1},
		{"SELECT Suburb FROM Callout WHERE Weight <= 1.5", 2},
		{"SELECT Suburb FROM Callout WHERE Weight < 1", 1},
		{"SELECT Suburb FROM Callout WHERE Urgent = true", 1},
		{"SELECT Suburb FROM Callout WHERE Urgent = false", 2},
		{"SELECT Suburb FROM Callout WHERE Suburb LIKE 'Her%'", 2},
		{"SELECT Suburb FROM Callout WHERE Suburb LIKE '%side'", 1},
		{"SELECT Suburb FROM Callout WHERE Priority = 1 AND Urgent = true", 1},
		{"SELECT Suburb FROM Callout DEEP WHERE Weight > 5", 1},
	}
	for _, c := range cases {
		_, rows, err := Query(db, c.q)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		if len(rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.q, len(rows), c.want)
		}
	}
}

func TestOQLProjection(t *testing.T) {
	db := newOQLDB(t)
	cols, rows, err := Query(db, "SELECT Priority, Suburb FROM Callout WHERE Suburb = 'Chermside'")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "Priority" || cols[1] != "Suburb" {
		t.Errorf("cols = %v", cols)
	}
	if len(rows) != 1 || rows[0][0] != int64(2) || rows[0][1] != "Chermside" {
		t.Errorf("rows = %v", rows)
	}
}

func TestOQLErrors(t *testing.T) {
	db := newOQLDB(t)
	bad := []string{
		"",
		"FROM Callout",
		"SELECT FROM Callout",
		"SELECT Suburb FROM",
		"SELECT Suburb FROM NoClass",
		"SELECT Bogus FROM Callout",
		"SELECT Suburb FROM Callout WHERE",
		"SELECT Suburb FROM Callout WHERE Suburb ~ 'x'",
		"SELECT Suburb FROM Callout WHERE Suburb = ",
		"SELECT Suburb FROM Callout WHERE Suburb = banana",
		"SELECT Suburb FROM Callout trailing junk",
	}
	for _, q := range bad {
		if _, _, err := Query(db, q); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestOQLTypeMismatchInCondition(t *testing.T) {
	db := newOQLDB(t)
	// Comparing a string attribute to a number matches nothing (no panic).
	_, rows, err := Query(db, "SELECT Suburb FROM Callout WHERE Suburb = 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("mismatched-type condition matched %d rows", len(rows))
	}
	// Int vs float comparisons coerce.
	_, rows, err = Query(db, "SELECT Suburb FROM Callout WHERE Priority < 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("numeric coercion rows = %d", len(rows))
	}
}
