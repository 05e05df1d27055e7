package gateway

import (
	"context"
	"strings"
	"testing"

	"repro/internal/idl"
	"repro/internal/oodb"
	"repro/internal/orb"
	"repro/internal/relational"
)

func newOracleDB(t *testing.T) *relational.Database {
	t.Helper()
	db := relational.NewDatabase("RBH", relational.DialectOracle)
	if _, err := db.ExecScript(`
		CREATE TABLE medical_students (student_id INT PRIMARY KEY, name VARCHAR(64), course VARCHAR(32), year INT);
		INSERT INTO medical_students VALUES
			(1, 'J. Chen', 'Medicine', 4),
			(2, 'P. Okoye', 'Medicine', 5),
			(3, 'S. Weiss', 'Surgery', 6);
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func newCoDB(t *testing.T) *oodb.DB {
	t.Helper()
	db := oodb.NewDB("codb-RBH")
	if _, err := db.DefineClass("InformationType", "",
		oodb.Attribute{Name: "Name", Type: oodb.AttrString}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Research", "InformationType",
		oodb.Attribute{Name: "Field", Type: oodb.AttrString}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewObject("Research", map[string]any{"Name": "RBH", "Field": "oncology"}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestObjectDriverOQL(t *testing.T) {
	drv := NewObjectDriver("ObjectStore")
	drv.Add(newCoDB(t))
	conn, err := drv.Open("codb-RBH")
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query(context.Background(), "SELECT Name, Field FROM Research WHERE Field = 'oncology'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "RBH" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := drv.Open("missing"); err == nil {
		t.Error("unknown OO database accepted")
	}
}

func TestResultFormat(t *testing.T) {
	r := &Result{Columns: []string{"id", "name"},
		Rows: [][]idl.Any{{idl.Long(1), idl.String("J. Chen")}}}
	text := r.Format()
	if !strings.Contains(text, "J. Chen") || !strings.Contains(text, "(1 row(s))") {
		t.Errorf("format:\n%s", text)
	}
}

// TestISIOverIIOP drives the full paper path: client ORB -> IIOP -> ISI
// servant -> gateway connection -> relational engine, and back.
func TestISIOverIIOP(t *testing.T) {
	server := orb.New(orb.Options{Product: orb.VisiBroker, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()

	drv := NewRelationalDriver("Oracle")
	if err := drv.Add(newOracleDB(t)); err != nil {
		t.Fatal(err)
	}
	local, err := drv.Open("RBH")
	if err != nil {
		t.Fatal(err)
	}
	servant, _ := NewISIServant(local, "Oracle", "RBH", nil)
	ior, err := server.Activate("ISI/RBH", servant)
	if err != nil {
		t.Fatal(err)
	}

	client := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	defer client.Shutdown()
	rconn := NewRemoteConn(client.Resolve(ior))

	res, err := rconn.Query(context.Background(), "SELECT name FROM medical_students WHERE year > 4 ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "P. Okoye" {
		t.Errorf("remote rows = %v", res.Rows)
	}
	// Engine errors surface with the engine's message.
	_, err = rconn.Query(context.Background(), "SELECT * FROM no_such_table")
	if err == nil || !strings.Contains(err.Error(), "no_such_table") {
		t.Errorf("remote error = %v", err)
	}
	if err := rconn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rconn.Query(context.Background(), "SELECT 1"); err == nil {
		t.Error("closed remote conn accepted query")
	}
}

func TestMSQLDialectThroughGateway(t *testing.T) {
	db := relational.NewDatabase("CentreLink", relational.DialectMSQL)
	if _, err := db.ExecScript(`
		CREATE TABLE benefits (person_id INT, amount FLOAT);
		INSERT INTO benefits VALUES (1, 120.5), (2, 80.0);
	`); err != nil {
		t.Fatal(err)
	}
	drv := NewRelationalDriver("mSQL")
	if err := drv.Add(db); err != nil {
		t.Fatal(err)
	}
	conn, _ := drv.Open("CentreLink")
	// Plain selects work; aggregates are refused by the dialect.
	if _, err := conn.Query(context.Background(), "SELECT * FROM benefits"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query(context.Background(), "SELECT SUM(amount) FROM benefits"); err == nil {
		t.Error("mSQL aggregate accepted through gateway")
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query(context.Background(), "SELECT * FROM benefits"); err == nil {
		t.Error("query on closed connection accepted")
	}
	// A driver serves its own vendor's databases, by name.
	if _, err := drv.Open("missing"); err == nil {
		t.Error("unknown database accepted")
	}
	if err := drv.Add(relational.NewDatabase("X", relational.DialectOracle)); err == nil {
		t.Error("dialect mismatch accepted")
	}
}
