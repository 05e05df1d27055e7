package medworld

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/space.golden")

// dumpSpace renders every node's co-database: each coalition with its parent
// and description, its members in order, and every link field. A reference
// is written as the name of the node whose co-database it names, so the dump
// does not depend on the ports the ORBs drew.
func dumpSpace(t *testing.T, w *World) string {
	t.Helper()
	owner := map[string]string{}
	for _, name := range w.NodeNames() {
		n, _ := w.Node(name)
		owner[n.Descriptor.CoDBRef] = name
	}
	ref := func(r string) string {
		if name, ok := owner[r]; ok {
			return name
		}
		return fmt.Sprintf("unknown(%q)", r)
	}
	var b strings.Builder
	for _, name := range w.NodeNames() {
		n, _ := w.Node(name)
		fmt.Fprintf(&b, "node %s\n", name)
		for _, c := range n.CoDB.Coalitions() {
			class, _ := n.CoDB.DB().Class(c)
			parent := class.Super().Name()
			if parent == codb.ClassInformationType {
				parent = ""
			}
			desc, syns, _ := n.CoDB.CoalitionInfo(c)
			fmt.Fprintf(&b, "  coalition %s parent=%q description=%q synonyms=%q\n", c, parent, desc, syns)
			members, err := n.CoDB.Members(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range members {
				node, _ := w.Node(m.Name)
				fmt.Fprintf(&b, "    member %s codb=%s descriptor-as-advertised=%t\n",
					m.Name, ref(m.CoDBRef), jsonText(t, m) == jsonText(t, node.Descriptor))
			}
		}
		for _, l := range n.CoDB.Links() {
			fmt.Fprintf(&b, "  link %s from=%s:%s to=%s:%s description=%q information=%q codb=%s\n",
				l.Name, l.FromKind, l.From, l.ToKind, l.To, l.Description, l.InfoType, ref(l.CoDBRef))
		}
	}
	return b.String()
}

func jsonText(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestBuiltSpaceIsFigure1: the information space Build writes into the
// fourteen co-databases, compared with a recorded dump. Every node's
// coalitions, their parents, descriptions and members in order, and every
// field of every service link it holds must match.
func TestBuiltSpaceIsFigure1(t *testing.T) {
	w, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	got := dumpSpace(t, w)
	path := filepath.Join("testdata", "space.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("information space differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestBuiltSpaceSurvivesSnapshot: every co-database Build writes restores
// from its snapshot to one that answers the same metadata (coalitions, their
// descriptions and members, links) and snapshots to the same bytes, so a
// node can persist the space across a restart.
func TestBuiltSpaceSurvivesSnapshot(t *testing.T) {
	w, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	metadata := func(cd *codb.CoDatabase) string {
		var b strings.Builder
		for _, c := range cd.Coalitions() {
			desc, syns, _ := cd.CoalitionInfo(c)
			members, err := cd.Members(c)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %q %q %s\n", c, desc, syns, jsonText(t, members))
		}
		b.WriteString(jsonText(t, cd.Links()))
		return b.String()
	}
	for _, name := range w.NodeNames() {
		n, _ := w.Node(name)
		snap, err := n.CoDB.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := codb.Restore(snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := metadata(restored), metadata(n.CoDB); got != want {
			t.Errorf("%s: restored metadata differs:\n got: %s\nwant: %s", name, got, want)
		}
		again, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(snap) {
			t.Errorf("%s: a restored co-database snapshots to other bytes", name)
		}
	}
}
