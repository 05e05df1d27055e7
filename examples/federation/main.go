// Command federation demonstrates the dynamic, autonomy-preserving side of
// WebFINDIT: information sources join and leave coalitions at their own
// discretion, coalitions form and dissolve, and service links are created at
// run time — all across three ORB products talking IIOP over real TCP
// sockets, with a CORBA-style naming service locating the servants.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/orb"
)

func main() {
	fed, err := core.NewFederation()
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Shutdown()

	// A naming service runs on the Orbix instance; every node, given its
	// address, binds its servants there so any client can find them by name.
	if _, _, err := naming.Serve(fed.ORB(orb.Orbix)); err != nil {
		log.Fatal(err)
	}

	mkNode := func(product orb.Product, name, engine, topic, schema string) *core.Node {
		n, err := fed.AddNode(product, core.NodeConfig{
			Name: name, Engine: engine, InformationType: topic, Schema: schema,
			Naming: fed.ORB(orb.Orbix).Addr(),
		})
		if err != nil {
			log.Fatal(err)
		}
		return n
	}

	fmt.Println("Booting four autonomous databases on three ORB products...")
	lab := mkNode(orb.VisiBroker, "Pathology Lab", core.EngineOracle,
		"pathology test results",
		"CREATE TABLE tests (id INT PRIMARY KEY, patient VARCHAR(64), result VARCHAR(32)); INSERT INTO tests VALUES (1, 'A. Howe', 'negative');")
	imaging := mkNode(orb.OrbixWeb, "Imaging Centre", core.EngineDB2,
		"radiology and imaging",
		"CREATE TABLE scans (id INT PRIMARY KEY, patient VARCHAR(64), modality VARCHAR(16)); INSERT INTO scans VALUES (1, 'B. Tran', 'MRI');")
	pharmacy := mkNode(orb.Orbix, "Pharmacy", core.EngineMSQL,
		"dispensed prescriptions",
		"CREATE TABLE scripts (id INT PRIMARY KEY, patient VARCHAR(64), drug VARCHAR(32)); INSERT INTO scripts VALUES (1, 'A. Howe', 'amoxicillin');")
	billing := mkNode(orb.VisiBroker, "Billing Office", core.EngineSybase,
		"account billing",
		"CREATE TABLE invoices (id INT PRIMARY KEY, patient VARCHAR(64), amount FLOAT); INSERT INTO invoices VALUES (1, 'B. Tran', 145.0);")
	_ = billing

	fmt.Println("\n-- Coalition formation --")
	if err := fed.DefineCoalition("Diagnostics", "",
		"diagnostic services: pathology and imaging", "Pathology Lab", "Imaging Centre"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Coalition Diagnostics formed with Pathology Lab and Imaging Centre.")

	// The pharmacy links itself to the coalition in WebTassili, naming a
	// member the naming service resolves, discovers the coalition through
	// that link, then joins it — dynamic, data-driven coupling.
	s := pharmacy.NewSession()
	if _, err := s.Execute(context.Background(), `Create Service Link Pharmacy_to_Diagnostics
		From Database Pharmacy To Coalition Diagnostics At "Pathology Lab" Information "diagnostic services";`); err != nil {
		log.Fatal(err)
	}
	resp, err := s.Execute(context.Background(), "Find Coalitions With Information diagnostic services;")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPharmacy discovery:")
	fmt.Println(resp.Text)

	if _, err := s.Execute(context.Background(), "Join Coalition Diagnostics;"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPharmacy joined Diagnostics via WebTassili.")
	members, _ := lab.CoDB.Members("Diagnostics")
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	fmt.Printf("Pathology Lab now sees members: %v\n", names)

	// Cross-ORB data access inside the coalition.
	fmt.Println("\n-- Cross-ORB query inside the coalition --")
	resp, err = s.Execute(context.Background(), `Query Imaging Centre Using Native "SELECT patient, modality FROM scans";`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(resp.Text)

	// Leaving at the member's discretion.
	fmt.Println("-- Departure --")
	if _, err := s.Execute(context.Background(), "Leave Coalition Diagnostics;"); err != nil {
		log.Fatal(err)
	}
	members, _ = lab.CoDB.Members("Diagnostics")
	fmt.Printf("After leave, Pathology Lab sees %d member(s).\n", len(members))

	// The coalition dissolves as its last members leave too.
	for _, n := range []*core.Node{imaging, lab} {
		if _, err := n.NewSession().Execute(context.Background(), "Leave Coalition Diagnostics;"); err != nil {
			log.Fatal(err)
		}
	}
	left, _ := lab.CoDB.Members("Diagnostics")
	fmt.Printf("Imaging Centre, then Pathology Lab, left too: Pathology Lab sees %d member(s).\n", len(left))

	// The naming service has been tracking everything.
	nc, err := naming.ClientFor(fed.ORB(orb.VisiBroker), fed.ORB(orb.Orbix).Addr())
	if err != nil {
		log.Fatal(err)
	}
	bound, err := nc.List("WebFINDIT/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- Naming service contents --")
	for _, n := range bound {
		fmt.Println("  " + n)
	}

	// ORB statistics show the traffic really crossed IIOP sockets between
	// different ORB products.
	fmt.Println("\n-- ORB statistics --")
	for _, p := range []orb.Product{orb.Orbix, orb.OrbixWeb, orb.VisiBroker} {
		o := fed.ORB(p)
		fmt.Printf("  %-10s served=%d colocated=%d iiop=%d bytesSent=%d\n", p,
			o.Stats.RequestsServed.Load(), o.Stats.ColocatedCalls.Load(),
			o.Stats.IIOPCalls.Load(), o.Stats.BytesSent.Load())
	}

	// Show interoperability explicitly: disable colocation on a fresh
	// client ORB and call every node over the socket.
	fmt.Println("\n-- Pure-IIOP reachability check --")
	client := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	defer client.Shutdown()
	for _, name := range []string{"Pathology Lab", "Imaging Centre", "Pharmacy", "Billing Office"} {
		ior, err := nc.Resolve("WebFINDIT/ISIs/" + name)
		if err != nil {
			log.Fatal(err)
		}
		ref, err := client.ResolveString(ior)
		if err != nil {
			log.Fatal(err)
		}
		found, err := ref.Locate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s locatable over IIOP: %t\n", name, found)
	}
	_ = codb.SourceDescriptor{}
}
