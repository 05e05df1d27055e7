// Command wtsh is an interactive WebTassili shell. By default it boots the
// paper's Medical World testbed in-process and opens a session on a chosen
// node; with -codb it instead connects to a remote node's co-database IOR
// (metadata-only access across processes).
//
//	wtsh                          # session on QUT Research in the medical world
//	wtsh -node "Royal Brisbane Hospital"
//	wtsh -codb IOR:... -home You  # remote metadata session
//
// Shell commands:
//
//	\nodes     list the databases in the world
//	\trace     print and clear the layer trace of the last statements
//	\help      show the WebTassili statement forms
//	\quit      exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/codb"
	"repro/internal/gossip"
	"repro/internal/medworld"
	"repro/internal/orb"
	"repro/internal/query"
)

const help = `WebTassili statements:
  Find Coalitions With Information <topic>;
  Connect To Coalition <name>;
  Display SubClasses Of Class <name>;
  Display Instances Of Class <name>;
  Display Document Of Instance <name> [Of Class <name>];
  Display Access Information Of Instance <name>;
  Display Interface Of Instance <name>;
  Search Type <name>;
  <Function>(<Type.Column>, (<Type.Column> = "literal" [AND ...])) [On <source>];
  Query <source> Using Native "<native query>";
  Create Coalition <name> [Under <parent>] [Description "<text>"];
  Create Service Link <name> From coalition|database <a> To coalition|database <b> [At <ref>] [Information "<t>"] [Description "<text>"];
  Join Coalition <name> [At <ref>];
  Leave Coalition <name>;
Statements end with ";". A <ref> is a quoted "IOR:..." or a database name
the node's naming service resolves.`

func main() {
	log.SetFlags(0)
	nodeName := flag.String("node", medworld.QUT, "node to open the session on")
	codbIOR := flag.String("codb", "", "connect to a remote co-database IOR instead of booting the medical world")
	home := flag.String("home", "wtsh", "home database name for remote sessions")
	script := flag.String("c", "", "execute the given statements, each ended by \";\", and exit")
	flag.Parse()

	var session *query.Session
	var nodeNames []string

	if *codbIOR != "" {
		o := orb.New(orb.Options{Product: orb.OrbixWeb})
		if err := o.Listen("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer o.Shutdown()
		ref, err := o.ResolveString(*codbIOR)
		if err != nil {
			log.Fatal(err)
		}
		// The shell's own gossip agent supplies the versions its metadata
		// cache verifies against: it learns the remote co-database (and the
		// peers it knows) on first use and keeps their versions current.
		agent := codb.NewGossipAgent(o, gossip.Config{})
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		go agent.Start(ctx)
		p, err := query.New(query.Config{
			ORB: o, Home: *home, Local: codb.NewClient(ref), Gossip: agent,
		})
		if err != nil {
			log.Fatal(err)
		}
		session = p.NewSession()
		fmt.Printf("connected to remote co-database; session home %q\n", *home)
	} else {
		fmt.Println("booting the Medical World testbed...")
		world, err := medworld.Build()
		if err != nil {
			log.Fatal(err)
		}
		defer world.Shutdown()
		node, ok := world.Node(*nodeName)
		if !ok {
			log.Fatalf("no node %q; use one of %v", *nodeName, world.NodeNames())
		}
		session = node.NewSession()
		nodeNames = world.NodeNames()
		fmt.Printf("session open on %q — type \\help for the statement forms\n", *nodeName)
	}

	show := func(resp *query.Response) {
		fmt.Println(resp.Text)
		if resp.Translated != "" {
			fmt.Printf("(wrapper produced: %s)\n", resp.Translated)
		}
	}
	if *script != "" {
		if err := session.ExecScript(context.Background(), *script, func(resp *query.Response) {
			fmt.Printf("wtl> %s\n", resp.Stmt)
			show(resp)
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("wtl> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			fmt.Println(help)
		case line == `\nodes`:
			for _, n := range nodeNames {
				fmt.Println("  " + n)
			}
		case line == `\trace`:
			for _, t := range session.Trace() {
				fmt.Println("  " + t.String())
			}
		default:
			if err := session.ExecScript(context.Background(), line, show); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("wtl> ")
	}
}
