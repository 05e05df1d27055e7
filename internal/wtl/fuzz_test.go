package wtl

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzWTLParse feeds arbitrary statement text to the WebTassili parser:
// hostile input must produce a statement or an error, never a panic. For
// inputs that parse, the rendered form must be a fixed point — String()
// reparses to a statement that renders identically — so the printer and the
// parser cannot drift apart.
func FuzzWTLParse(f *testing.F) {
	seeds := []string{
		"Find Coalitions With Information Medical Research;",
		"Connect To Coalition Research;",
		"Display Coalitions;",
		"Display Service Links;",
		"Display SubClasses of Class Research;",
		"Display Instances of Class Research;",
		"Display Document of Instance Royal Brisbane Hospital Of Class Research;",
		"Display Documentation of Instance Royal Brisbane Hospital;",
		"Display Access Information of Instance Royal Brisbane Hospital;",
		"Display Interface of Instance Royal Brisbane Hospital;",
		"Search Type PatientHistory;",
		"Create Coalition Superannuation;",
		"Join Coalition Medical;",
		"Leave Coalition Medical;",
		`V(R.K, (R.K = "a")) On Coalition Records;`,
		`History(P.Name, (P.Name = "Smith")) On Database RBH;`,
		// Semi-join clauses: plain, predicated, cross-coalition, limited.
		`V(R.K) On Coalition A SemiJoin W(R.V) On Coalition B;`,
		`V(R.K) On Coalition A SemiJoin W(R.V, (R.V >= 2)) On Coalition B Limit 3;`,
		`V(R.K, (R.K LIKE "k%")) On Coalition c0 SemiJoin K(R.V, (R.V = 7)) On Coalition c1;`,
		// A source whose name contains the word SemiJoin stays a name.
		`V(R.K) On SemiJoin Services;`,
		// Quoted names and texts the printer must quote again: blank, with
		// punctuation or an embedded quote, a clause's stop word, the shape
		// of a Limit clause, a single source named like a coalition.
		`0(0)On" "`,
		`0(0)On""""`,
		`V(R.K, (R.K = "say ""x""")) On "St. Mary's";`,
		`V(R.K) On "A Limit 3" Limit 3;`,
		`V(R.K) On "Coalition A";`,
		`V(R.K) On Coalition "" SemiJoin W(R.V) On Coalition "a  b";`,
		`Display Document Of Instance "Of Mice" Of Class "Men; and";`,
		`Create Coalition "Under Description" Under "Description" Description "a ""b""";`,
		`Create Service Link "From" From Database "To" To Coalition "Information" Information "x""y";`,
		`Query "Using" Using Native "SELECT 'a', ""b""";`,
		// At references: an IOR, a bare and a quoted name, one holding ";",
		// a quote and the At stop word; a link's Description after them.
		`Join Coalition Medical At "IOR:00ff";`,
		`Join Coalition "At" At Royal Brisbane Hospital;`,
		`Join Coalition M At "a;b ""c"" At d";`,
		`Create Service Link L From Coalition A To Coalition B At "x;""At""" Information "t" Description "d;""e""";`,
		`Create Service Link L From Database A To Database "Description" At At Description "";`,
		`Join Coalition M At ""`,
		`Search Type "With" With Structure (attribute int A.b;);`,
		// Malformed join shapes the parser must reject gracefully.
		`V(R.K) SemiJoin W(R.V) On Coalition B;`,
		`V(R.K) On Coalition A SemiJoin W(R.V) On B;`,
		`V(R.K) On Coalition A SemiJoin W(R.V) On Coalition B SemiJoin X(R.K) On Coalition C;`,
		`V(R.K) On Coalition A SemiJoin W(;`,
		// Malformed shapes the parser must reject gracefully.
		"Find Coalitions Information x;",
		"Find Coalitions With Information ;",
		"Display Instances;",
		"V(R.K,;",
		"",
		";",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse(%q) returned both statement and error %v", src, err)
			}
			return
		}
		if !utf8.ValidString(src) {
			// Rendering of mangled identifiers need not round-trip.
			return
		}
		first := stmt.String()
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("rendered form does not reparse: %q -> %q: %v", src, first, err)
		}
		if second := again.String(); second != first {
			t.Fatalf("render not a fixed point:\n  src:    %q\n  first:  %q\n  second: %q",
				src, first, second)
		}
		if strings.TrimSpace(first) == "" {
			t.Fatalf("Parse(%q) succeeded but renders empty", src)
		}
	})
}
