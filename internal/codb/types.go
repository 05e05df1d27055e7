// Package codb implements WebFINDIT co-databases: the object-oriented
// metadata database attached to every participating database (the paper's
// meta-data layer). A co-database stores the coalition class lattice, the
// service-link sub-schemas, and the source descriptors (information type,
// documentation, location, wrapper, exported interface) of the databases it
// knows about. It is exposed to the federation as a CORBA servant.
package codb

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/idl"
)

// TypedMember is one attribute or function argument of an exported type,
// e.g. "string Patient.Name".
type TypedMember struct {
	Type string `json:"type"` // "string", "int", "real", "date"
	Name string `json:"name"` // qualified "Relation.Column" name
}

// ExportedFunction is an access routine of an exported type. The paper's
// example: Funding(ResearchProjects.Title x, Predicate(x)) translates to
// SELECT a.Funding FROM ResearchProjects a WHERE <predicate>. Table,
// ResultColumn and ArgColumn capture that translation.
type ExportedFunction struct {
	Name         string        `json:"name"`
	Returns      string        `json:"returns"`
	Args         []TypedMember `json:"args,omitempty"`
	Table        string        `json:"table"`         // underlying relation
	ResultColumn string        `json:"result_column"` // projected column
	ArgColumn    string        `json:"arg_column"`    // column the predicate constrains
}

// ExportedType is one type of a database's exported interface, e.g. the
// paper's PatientHistory or ResearchProjects.
type ExportedType struct {
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	Attributes  []TypedMember      `json:"attributes,omitempty"`
	Functions   []ExportedFunction `json:"functions,omitempty"`
}

// Function finds a function by name (case-insensitive).
func (t *ExportedType) Function(name string) (*ExportedFunction, bool) {
	for i := range t.Functions {
		if strings.EqualFold(t.Functions[i].Name, name) {
			return &t.Functions[i], true
		}
	}
	return nil, false
}

// Declaration renders the exported type in the paper's WebTassili syntax.
func (t *ExportedType) Declaration() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Type %s {\n", t.Name)
	for _, a := range t.Attributes {
		fmt.Fprintf(&b, "    attribute %s %s;\n", a.Type, a.Name)
	}
	for _, f := range t.Functions {
		args := make([]string, 0, len(f.Args)+1)
		for _, a := range f.Args {
			args = append(args, a.Type+" "+a.Name)
		}
		args = append(args, "Predicate(x)")
		fmt.Fprintf(&b, "    function %s %s(%s);\n", f.Returns, f.Name, strings.Join(args, ", "))
	}
	b.WriteString("}")
	return b.String()
}

// SourceDescriptor advertises one database in the federation, carrying
// exactly the fields of the paper's "Information Source" advertisement
// (§2.2) plus the machine-usable access fields the reproduction needs.
type SourceDescriptor struct {
	Name            string         `json:"name"`
	InformationType string         `json:"information_type"`
	Documentation   string         `json:"documentation"`       // URL
	DocumentHTML    string         `json:"document_html"`       // served document body
	Location        string         `json:"location"`            // host of the ISI
	Wrapper         string         `json:"wrapper"`             // e.g. "WebTassiliOracle"
	ISIRef          string         `json:"isi_ref"`             // stringified IOR of the ISI servant
	CoDBRef         string         `json:"codb_ref"`            // stringified IOR of the owner's co-database servant
	Engine          string         `json:"engine"`              // DBMS product
	ORB             string         `json:"orb"`                 // hosting ORB product
	Interface       []ExportedType `json:"interface,omitempty"` // exported types
}

// Type finds an exported type by name (case-insensitive).
func (d *SourceDescriptor) Type(name string) (*ExportedType, bool) {
	for i := range d.Interface {
		if strings.EqualFold(d.Interface[i].Name, name) {
			return &d.Interface[i], true
		}
	}
	return nil, false
}

// InterfaceNames lists the exported type names.
func (d *SourceDescriptor) InterfaceNames() []string {
	out := make([]string, len(d.Interface))
	for i, t := range d.Interface {
		out[i] = t.Name
	}
	return out
}

// marshalInterface serialises exported types for storage in the OO database.
func marshalInterface(ts []ExportedType) string {
	data, err := json.Marshal(ts)
	if err != nil {
		return "[]"
	}
	return string(data)
}

func unmarshalInterface(s string) []ExportedType {
	if s == "" {
		return nil
	}
	var ts []ExportedType
	if err := json.Unmarshal([]byte(s), &ts); err != nil {
		return nil
	}
	return ts
}

// maxInterfaceMemo bounds interfaceMemo. Every member of a federation
// advertises one interface text, so this is far above any working set; past
// it an arbitrary entry makes room.
const maxInterfaceMemo = 256

// interfaceMemo holds decoded interface texts, so a client decodes the JSON
// of each distinct advertisement once rather than once per descriptor
// listed. Descriptors decoded from the same text share one slice: they are
// read-only, like every descriptor the query layer's metadata cache hands
// out. An entry is a pure function of its key, so what the memo holds,
// evicted or not, changes no caller's result.
var interfaceMemo = struct {
	sync.RWMutex
	m map[string][]ExportedType
}{m: make(map[string][]ExportedType)}

// decodeInterface is unmarshalInterface through interfaceMemo.
func decodeInterface(s string) []ExportedType {
	interfaceMemo.RLock()
	ts, ok := interfaceMemo.m[s]
	interfaceMemo.RUnlock()
	if ok {
		return ts
	}
	ts = unmarshalInterface(s)
	interfaceMemo.Lock()
	if len(interfaceMemo.m) >= maxInterfaceMemo {
		for k := range interfaceMemo.m {
			delete(interfaceMemo.m, k)
			break
		}
	}
	interfaceMemo.m[s] = ts
	interfaceMemo.Unlock()
	return ts
}

// ToAny packs a descriptor for ORB transport.
func (d *SourceDescriptor) ToAny() idl.Any { return d.toAny(marshalInterface(d.Interface)) }

// toAny is ToAny with the interface already in its JSON text form.
func (d *SourceDescriptor) toAny(iface string) idl.Any {
	return idl.Struct(
		idl.F("name", idl.String(d.Name)),
		idl.F("information_type", idl.String(d.InformationType)),
		idl.F("documentation", idl.String(d.Documentation)),
		idl.F("document_html", idl.String(d.DocumentHTML)),
		idl.F("location", idl.String(d.Location)),
		idl.F("wrapper", idl.String(d.Wrapper)),
		idl.F("isi_ref", idl.String(d.ISIRef)),
		idl.F("codb_ref", idl.String(d.CoDBRef)),
		idl.F("engine", idl.String(d.Engine)),
		idl.F("orb", idl.String(d.ORB)),
		idl.F("interface", idl.String(iface)),
	)
}

// DescriptorFromAny unpacks a descriptor shipped by ToAny.
func DescriptorFromAny(a idl.Any) (*SourceDescriptor, error) {
	if a.Kind != idl.KindStruct {
		return nil, fmt.Errorf("codb: descriptor payload is %s, not struct", a.Kind)
	}
	return &SourceDescriptor{
		Name:            a.GetString("name"),
		InformationType: a.GetString("information_type"),
		Documentation:   a.GetString("documentation"),
		DocumentHTML:    a.GetString("document_html"),
		Location:        a.GetString("location"),
		Wrapper:         a.GetString("wrapper"),
		ISIRef:          a.GetString("isi_ref"),
		CoDBRef:         a.GetString("codb_ref"),
		Engine:          a.GetString("engine"),
		ORB:             a.GetString("orb"),
		Interface:       decodeInterface(a.GetString("interface")),
	}, nil
}

// ServiceLink is one sharing agreement. The paper distinguishes three types
// (coalition-coalition, database-database, coalition-database); Kind fields
// carry "coalition" or "database".
type ServiceLink struct {
	Name        string `json:"name"` // e.g. "ATO_to_Medical"
	FromKind    string `json:"from_kind"`
	From        string `json:"from"`
	ToKind      string `json:"to_kind"`
	To          string `json:"to"`
	Description string `json:"description"`      // minimal description of the shared information
	InfoType    string `json:"information_type"` // topic exchanged over the link
	CoDBRef     string `json:"codb_ref"`         // IOR of a co-database that can answer for the target
}

// ToAny packs a link for ORB transport.
func (l *ServiceLink) ToAny() idl.Any {
	return idl.Struct(
		idl.F("name", idl.String(l.Name)),
		idl.F("from_kind", idl.String(l.FromKind)),
		idl.F("from", idl.String(l.From)),
		idl.F("to_kind", idl.String(l.ToKind)),
		idl.F("to", idl.String(l.To)),
		idl.F("description", idl.String(l.Description)),
		idl.F("information_type", idl.String(l.InfoType)),
		idl.F("codb_ref", idl.String(l.CoDBRef)),
	)
}

// LinkFromAny unpacks a link shipped by ToAny.
func LinkFromAny(a idl.Any) (*ServiceLink, error) {
	if a.Kind != idl.KindStruct {
		return nil, fmt.Errorf("codb: link payload is %s, not struct", a.Kind)
	}
	return &ServiceLink{
		Name:        a.GetString("name"),
		FromKind:    a.GetString("from_kind"),
		From:        a.GetString("from"),
		ToKind:      a.GetString("to_kind"),
		To:          a.GetString("to"),
		Description: a.GetString("description"),
		InfoType:    a.GetString("information_type"),
		CoDBRef:     a.GetString("codb_ref"),
	}, nil
}
