// Command quickstart is the smallest useful WebFINDIT federation: two
// databases on different ORB products form one coalition; a session on one
// node discovers the coalition, browses it, and queries the other node's
// data through its exported interface.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/query"
)

func main() {
	// A federation boots one instance of each ORB product on loopback.
	fed, err := core.NewFederation()
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Shutdown()

	// A hospital database on Oracle behind VisiBroker.
	if _, err := fed.AddNode(orb.VisiBroker, core.NodeConfig{
		Name:            "City Hospital",
		Engine:          core.EngineOracle,
		InformationType: "hospital admissions",
		Documentation:   "http://example.org/city-hospital",
		Schema: `
			CREATE TABLE admissions (id INT PRIMARY KEY, patient VARCHAR(64), ward VARCHAR(16), days INT);
			INSERT INTO admissions VALUES
				(1, 'A. Howe', '3A', 4),
				(2, 'B. Tran', '7C', 11),
				(3, 'C. Ng', '3A', 2);`,
		Interface: []codb.ExportedType{{
			Name: "Admissions",
			Functions: []codb.ExportedFunction{{
				Name:    "Days",
				Returns: "int",
				Args:    []codb.TypedMember{{Type: "string", Name: "Admissions.Patient"}},
				Table:   "admissions", ResultColumn: "days", ArgColumn: "patient",
			}},
		}},
	}); err != nil {
		log.Fatal(err)
	}

	// A clinic database on mSQL behind OrbixWeb.
	clinic, err := fed.AddNode(orb.OrbixWeb, core.NodeConfig{
		Name:            "Suburb Clinic",
		Engine:          core.EngineMSQL,
		InformationType: "general practice visits",
		Schema: `
			CREATE TABLE visits (id INT PRIMARY KEY, patient VARCHAR(64), reason VARCHAR(32));
			INSERT INTO visits VALUES (1, 'C. Ng', 'follow-up');`,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Both join the Healthcare coalition: each co-database learns the
	// coalition class and both member descriptors.
	if err := fed.DefineCoalition("Healthcare", "",
		"hospital and clinic patient data", "City Hospital", "Suburb Clinic"); err != nil {
		log.Fatal(err)
	}

	// A user of the clinic explores the information space with WebTassili.
	if err := clinic.NewSession().ExecScript(context.Background(), `
		Find Coalitions With Information hospital admissions;
		Connect To Coalition Healthcare;
		Display Instances of Class Healthcare;
		Display Access Information of Instance City Hospital;
		Days(Admissions.Patient, (Admissions.Patient = "B. Tran")) On City Hospital;
		Query City Hospital Using Native "SELECT ward, COUNT(*) AS n FROM admissions GROUP BY ward ORDER BY ward";`,
		func(resp *query.Response) {
			fmt.Printf("wtl> %s\n%s\n", resp.Stmt, resp.Text)
			if resp.Translated != "" {
				fmt.Printf("(wrapper produced: %s)\n", resp.Translated)
			}
			fmt.Println()
		}); err != nil {
		log.Fatal(err)
	}
}
