// Package query implements the WebFINDIT query layer: the query processor
// that checks WebTassili statements, instantiates an execution plan, runs
// the paper's two-level resolution algorithm over co-databases (local
// coalitions, then service links, then coalition peers), and translates
// typed data queries through wrappers into the native language of the
// target database.
package query

import (
	"fmt"
	"strings"

	"repro/internal/codb"
	"repro/internal/wtl"
)

// resolveConds resolves every predicate's possibly qualified column against
// the exported function's table, yielding fragment-ready conditions with
// bare column names, so a mismatched qualifier is rejected before any
// fragment is rendered.
func resolveConds(fn *codb.ExportedFunction, preds []wtl.Condition) ([]wtl.Condition, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	out := make([]wtl.Condition, len(preds))
	for i, p := range preds {
		col, err := columnFor(fn, p.Column)
		if err != nil {
			return nil, err
		}
		p.Column = col
		out[i] = p
	}
	return out, nil
}

// columnFor resolves a possibly qualified predicate column against the
// function's table, so "ResearchProjects.Title" becomes "Title" and a
// mismatched qualifier is rejected. Qualifiers name the *exported type*
// ("ResearchProjects"), which may differ from the physical relation
// ("research_projects") only in case and underscores.
func columnFor(fn *codb.ExportedFunction, col string) (string, error) {
	if table, c, ok := strings.Cut(col, "."); ok {
		if normalizeRel(table) != normalizeRel(fn.Table) {
			return "", fmt.Errorf("query: predicate column %s does not belong to %s", col, fn.Table)
		}
		return c, nil
	}
	return col, nil
}

// normalizeRel folds case and underscores so logical exported-type names
// match the physical relations they export.
func normalizeRel(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), "_", "")
}

// wrapperFor names the wrapper a descriptor advertises and reports whether
// its fragments render as OQL rather than SQL. The paper names these programs
// ("WebTassiliOracle" is "the wrapper needed to access data in the Oracle
// database using a WebTassili query"); buildFragmentExec renders through the
// family. Unknown wrapper names fall back by engine family, which is how the
// prototype degrades when a site advertises a wrapper this node does not ship.
func wrapperFor(d *codb.SourceDescriptor) (name string, oql bool) {
	switch d.Wrapper {
	case "WebTassiliOracle", "WebTassiliMSQL", "WebTassiliDB2", "WebTassiliSybase":
		return d.Wrapper, false
	case "WebTassiliObjectStore", "WebTassiliOntos":
		return d.Wrapper, true
	}
	return "WebTassili" + d.Engine, d.Engine == "ObjectStore" || d.Engine == "Ontos"
}
