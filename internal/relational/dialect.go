package relational

import "fmt"

// Dialect is a vendor capability profile. The paper's prototype federates
// Oracle, mSQL, DB2 and Sybase behind one gateway; those engines accepted
// visibly different SQL subsets, which the federation layer must route
// around. A Dialect gates which statements the engine instance accepts, so
// the heterogeneity the paper copes with is real in the reproduction.
type Dialect struct {
	Name string
	// Capability flags.
	Aggregates bool // COUNT/SUM/AVG/MIN/MAX and GROUP BY/HAVING
	Like       bool // standard LIKE patterns (mSQL 2.x shipped RLIKE/CLIKE instead)
	InList     bool // literal IN lists (`x IN (1, 2)`; mSQL wanted OR chains)
	MaxVarchar int  // upper bound for declared VARCHAR sizes (0 = unlimited)
}

// Vendor dialect profiles. Feature sets follow the engines' late-1990s
// behaviour in the ways that matter to WebFINDIT: mSQL (MiniSQL 2.x) had no
// aggregate functions or GROUP BY, which forces the wrapper layer to
// compensate — exactly the heterogeneity the paper's gateway layer bridges.
var (
	DialectOracle = Dialect{Name: "Oracle", Aggregates: true, Like: true, InList: true, MaxVarchar: 4000}
	DialectMSQL   = Dialect{Name: "mSQL", MaxVarchar: 255}
	DialectDB2    = Dialect{Name: "DB2", Aggregates: true, Like: true, InList: true, MaxVarchar: 4000}
	DialectSybase = Dialect{Name: "Sybase", Aggregates: true, Like: true, InList: true, MaxVarchar: 255}
)

// DialectByName resolves a vendor name.
func DialectByName(name string) (Dialect, error) {
	switch name {
	case "Oracle":
		return DialectOracle, nil
	case "mSQL":
		return DialectMSQL, nil
	case "DB2":
		return DialectDB2, nil
	case "Sybase":
		return DialectSybase, nil
	}
	return Dialect{}, fmt.Errorf("relational: unknown dialect %q", name)
}

// Check rejects statements outside the dialect's capability set with an
// error shaped like the vendor's ("feature not supported").
func (d Dialect) Check(stmt Statement) error {
	unsupported := func(feature string) error {
		return fmt.Errorf("relational: %s does not support %s", d.Name, feature)
	}
	switch s := stmt.(type) {
	case *ExplainStmt:
		return d.Check(s.Query)
	case *SelectStmt:
		exprs := append([]Expr{s.Where, s.Having}, s.GroupBy...)
		for _, it := range s.Items {
			exprs = append(exprs, it.Expr)
		}
		for _, o := range s.OrderBy {
			exprs = append(exprs, o.Expr)
		}
		if !d.Aggregates && (len(s.GroupBy) > 0 || s.Having != nil) {
			return unsupported("GROUP BY / HAVING")
		}
		for _, e := range exprs {
			switch {
			case !d.Aggregates && contains(e, isAggregate):
				return unsupported("aggregate functions")
			case !d.Like && contains(e, isLike):
				return unsupported("LIKE")
			case !d.InList && contains(e, isInList):
				return unsupported("IN lists")
			}
		}
	case *CreateTableStmt:
		if d.MaxVarchar > 0 {
			for _, c := range s.Schema.Columns {
				if c.Size > d.MaxVarchar {
					return fmt.Errorf("relational: %s limits VARCHAR to %d (column %s asks %d)",
						d.Name, d.MaxVarchar, c.Name, c.Size)
				}
			}
		}
	}
	return nil
}
