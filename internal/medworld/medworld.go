// Package medworld builds the paper's healthcare application testbed: the
// fourteen databases, five coalitions and nine service links of Figure 1,
// placed on the five DBMS engines and three ORB products of Figure 2. Each
// database gets its own co-database, for the paper's 28 databases in total.
//
// The paper gives the Royal Brisbane Hospital's relational schema (§2.2)
// verbatim; the other databases' contents are illustrative in the paper, so
// this package seeds them with small synthetic datasets that exercise the
// same code paths (see DESIGN.md, substitutions).
package medworld

import (
	"fmt"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/orb"
)

// Database names, verbatim from the paper.
const (
	SGF       = "State Government Funding"
	RBH       = "Royal Brisbane Hospital"
	RBHUnion  = "RBH Workers Union"
	Centre    = "Centre Link"
	Medibank  = "Medibank"
	MBF       = "MBF"
	RMIT      = "RMIT Medical Research"
	QCF       = "Queensland Cancer Fund"
	ATO       = "Australian Taxation Office"
	Medicare  = "Medicare"
	QUT       = "QUT Research"
	Ambulance = "Ambulance"
	AMP       = "AMP"
	PCH       = "Prince Charles Hospital"
)

// Coalition names (Figure 1).
const (
	CoalitionResearch  = "Research"
	CoalitionMedical   = "Medical"
	CoalitionInsurance = "Medical Insurance"
	CoalitionUnion     = "Medical Workers Union"
	CoalitionSuper     = "Superannuation"
)

// World is the assembled healthcare federation.
type World struct {
	*core.Federation
}

// DatabaseNames lists the fourteen databases, in the paper's order.
func DatabaseNames() []string {
	return []string{SGF, RBH, RBHUnion, Centre, Medibank, MBF, RMIT, QCF,
		ATO, Medicare, QUT, Ambulance, AMP, PCH}
}

// placement maps each database to its engine and ORB product, following
// Figure 2's wiring: Oracle behind VisiBroker; mSQL, DB2 and Ontos behind
// OrbixWeb; ObjectStore behind Orbix.
type placementInfo struct {
	Engine  string
	Product orb.Product
}

var placement = map[string]placementInfo{
	RBH:       {core.EngineOracle, orb.VisiBroker},
	Medibank:  {core.EngineOracle, orb.VisiBroker},
	ATO:       {core.EngineOracle, orb.VisiBroker},
	SGF:       {core.EngineOracle, orb.VisiBroker},
	Centre:    {core.EngineMSQL, orb.OrbixWeb},
	Medicare:  {core.EngineMSQL, orb.OrbixWeb},
	QUT:       {core.EngineMSQL, orb.OrbixWeb},
	MBF:       {core.EngineDB2, orb.OrbixWeb},
	RBHUnion:  {core.EngineDB2, orb.OrbixWeb},
	AMP:       {core.EngineObjectStore, orb.Orbix},
	PCH:       {core.EngineObjectStore, orb.Orbix},
	QCF:       {core.EngineObjectStore, orb.Orbix},
	Ambulance: {core.EngineOntos, orb.OrbixWeb},
	RMIT:      {core.EngineOntos, orb.OrbixWeb},
}

// RBHDocumentHTML is the documentation page served for the Royal Brisbane
// Hospital (Figure 5 shows the original).
const RBHDocumentHTML = `<html>
<head><title>Royal Brisbane Hospital</title></head>
<body>
<h1>Royal Brisbane Hospital</h1>
<p>The Royal Brisbane Hospital database holds patient, bed-occupancy,
clinical history and research-project records. It advertises the
information type "Research and Medical" in the coalitions Research and
Medical.</p>
<ul>
<li>Exported types: ResearchProjects, PatientHistory, MedicalStudents</li>
<li>Wrapper: WebTassiliOracle</li>
<li>Location: dba.icis.qut.edu.au</li>
</ul>
</body>
</html>`

// rbhSchema is the paper's §2.2 schema, seeded with synthetic rows. The
// "AIDS and drugs" project and the medical_students rows back the paper's
// §2.3 Funding() walkthrough and Figure 6.
const rbhSchema = `
CREATE TABLE patient (
    patient_id INT PRIMARY KEY, name VARCHAR(64) NOT NULL,
    date_of_birth DATE, gender VARCHAR(1), address VARCHAR(128));
CREATE TABLE beds (
    bed_id INT PRIMARY KEY, location VARCHAR(32), default_patient_type VARCHAR(16));
CREATE TABLE occupancy (
    bed_id INT, patient_id INT, date_from DATE, date_to DATE);
CREATE TABLE history (
    patient_id INT, date_recorded DATE, description VARCHAR(128),
    description_notes VARCHAR(256), doctor_id INT);
CREATE TABLE doctors (
    employee_id INT PRIMARY KEY, qualification VARCHAR(32), position VARCHAR(32));
CREATE TABLE research_projects (
    project_id INT PRIMARY KEY, title VARCHAR(128), keywords VARCHAR(128),
    supervising_doctor INT, begin_date DATE, completed_date DATE, funding FLOAT);
CREATE TABLE medical_students (
    student_id INT PRIMARY KEY, name VARCHAR(64), course VARCHAR(32), year INT);
CREATE TABLE research_project_attendants (
    project_id INT, student_id INT, task VARCHAR(64),
    date_started DATE, date_completed DATE, results VARCHAR(128));

INSERT INTO patient VALUES
    (1, 'A. Howe', '1961-04-02', 'F', '12 Wickham Tce'),
    (2, 'B. Tran', '1974-09-13', 'M', '3 Boundary St'),
    (3, 'C. Ng', '1980-01-30', 'F', '55 Vulture St'),
    (4, 'D. Park', '1955-07-21', 'M', '77 Ann St');
INSERT INTO beds VALUES
    (1, 'Ward 3A', 'surgical'), (2, 'Ward 3A', 'surgical'), (3, 'Ward 7C', 'oncology');
INSERT INTO occupancy VALUES
    (1, 1, '1998-05-01', '1998-05-09'), (3, 3, '1998-08-15', '1998-09-01');
INSERT INTO history VALUES
    (1, '1998-05-01', 'influenza', 'admitted overnight', 10),
    (2, '1998-07-02', 'fracture', 'cast applied', 10),
    (3, '1998-08-15', 'allergy', 'antihistamine course', 11);
INSERT INTO doctors VALUES
    (10, 'MBBS', 'Registrar'), (11, 'FRACP', 'Consultant'), (12, 'MBBS', 'Intern');
INSERT INTO research_projects VALUES
    (100, 'AIDS and drugs', 'aids, antiviral, trial', 11, '1997-02-01', NULL, 1250000),
    (101, 'Oncology outcomes', 'cancer, survival', 11, '1996-07-15', '1998-06-30', 480000),
    (102, 'Burn recovery', 'burns, skin graft', 10, '1998-01-10', NULL, 150000);
INSERT INTO medical_students VALUES
    (1, 'J. Chen', 'Medicine', 4),
    (2, 'P. Okoye', 'Medicine', 5),
    (3, 'S. Weiss', 'Surgery', 6),
    (4, 'R. Gupta', 'Medicine', 3);
INSERT INTO research_project_attendants VALUES
    (100, 1, 'data collection', '1997-03-01', NULL, NULL),
    (101, 2, 'literature review', '1996-08-01', '1997-01-15', 'published'),
    (100, 3, 'lab assays', '1997-06-01', NULL, NULL);
`

// rbhInterface is the Royal Brisbane Hospital's exported interface: the two
// advertised types of §2.2 plus MedicalStudents (exported per Figure 6).
func rbhInterface() []codb.ExportedType {
	return []codb.ExportedType{
		{
			Name:        "ResearchProjects",
			Description: "research projects conducted at the hospital",
			Attributes: []codb.TypedMember{
				{Type: "string", Name: "ResearchProjects.Title"},
				{Type: "string", Name: "ResearchProjects.Keywords"},
				{Type: "date", Name: "ResearchProjects.BeginDate"},
			},
			Functions: []codb.ExportedFunction{{
				Name:    "Funding",
				Returns: "real",
				Args: []codb.TypedMember{
					{Type: "string", Name: "ResearchProjects.Title"},
				},
				Table:        "research_projects",
				ResultColumn: "funding",
				ArgColumn:    "title",
			}},
		},
		{
			Name:        "PatientHistory",
			Description: "clinical history of admitted patients",
			Attributes: []codb.TypedMember{
				{Type: "string", Name: "Patient.Name"},
				{Type: "date", Name: "History.DateRecorded"},
			},
			Functions: []codb.ExportedFunction{{
				Name:    "Description",
				Returns: "string",
				Args: []codb.TypedMember{
					{Type: "string", Name: "Patient.Name"},
					{Type: "date", Name: "History.DateRecorded"},
				},
				Table:        "history",
				ResultColumn: "description",
				ArgColumn:    "patient_id",
			}},
		},
		{
			Name:        "MedicalStudents",
			Description: "medical students doing internships at the hospital",
			Attributes: []codb.TypedMember{
				{Type: "string", Name: "MedicalStudents.Name"},
				{Type: "string", Name: "MedicalStudents.Course"},
				{Type: "int", Name: "MedicalStudents.Year"},
			},
			Functions: []codb.ExportedFunction{{
				Name:    "Course",
				Returns: "string",
				Args: []codb.TypedMember{
					{Type: "string", Name: "MedicalStudents.Name"},
				},
				Table:        "medical_students",
				ResultColumn: "course",
				ArgColumn:    "name",
			}},
		},
	}
}

// relSpec describes a synthetic relational database.
type relSpec struct {
	infoType string
	docURL   string
	schema   string
	iface    []codb.ExportedType
}

var relSpecs = map[string]relSpec{
	RBH: {
		infoType: "Research and Medical",
		docURL:   "http://www.medicine.uq.edu.au/RBH",
		schema:   rbhSchema,
		iface:    rbhInterface(),
	},
	SGF: {
		infoType: "state health funding and grants",
		docURL:   "http://www.qld.gov.au/funding",
		schema: `
CREATE TABLE grants (grant_id INT PRIMARY KEY, recipient VARCHAR(64), purpose VARCHAR(64), amount FLOAT, year INT);
INSERT INTO grants VALUES
    (1, 'Royal Brisbane Hospital', 'oncology ward', 2400000, 1997),
    (2, 'Prince Charles Hospital', 'cardiac unit', 1800000, 1998),
    (3, 'Queensland Cancer Fund', 'screening program', 350000, 1998);`,
		iface: []codb.ExportedType{{
			Name: "Grants",
			Functions: []codb.ExportedFunction{{
				Name: "Amount", Returns: "real",
				Args:         []codb.TypedMember{{Type: "string", Name: "Grants.Recipient"}},
				Table:        "grants",
				ResultColumn: "amount",
				ArgColumn:    "recipient",
			}},
		}},
	},
	Medibank: {
		infoType: "private medical insurance cover",
		docURL:   "http://www.medibank.com.au",
		schema: `
CREATE TABLE policies (policy_id INT PRIMARY KEY, holder VARCHAR(64), cover VARCHAR(32), premium FLOAT);
CREATE TABLE claims (claim_id INT PRIMARY KEY, policy_id INT, amount FLOAT, approved BOOLEAN);
INSERT INTO policies VALUES
    (1, 'A. Howe', 'hospital+extras', 1450.0), (2, 'D. Park', 'hospital', 980.0);
INSERT INTO claims VALUES (1, 1, 420.0, TRUE), (2, 2, 95.5, FALSE);`,
		iface: []codb.ExportedType{{
			Name: "Policies",
			Functions: []codb.ExportedFunction{{
				Name: "Premium", Returns: "real",
				Args:         []codb.TypedMember{{Type: "string", Name: "Policies.Holder"}},
				Table:        "policies",
				ResultColumn: "premium",
				ArgColumn:    "holder",
			}},
		}},
	},
	ATO: {
		infoType: "taxation records and medicare levy",
		docURL:   "http://www.ato.gov.au",
		schema: `
CREATE TABLE taxpayers (tfn INT PRIMARY KEY, name VARCHAR(64), medicare_levy FLOAT, year INT);
INSERT INTO taxpayers VALUES
    (1001, 'A. Howe', 812.50, 1998), (1002, 'B. Tran', 430.00, 1998);`,
		iface: []codb.ExportedType{{
			Name: "Taxpayers",
			Functions: []codb.ExportedFunction{{
				Name: "MedicareLevy", Returns: "real",
				Args:         []codb.TypedMember{{Type: "string", Name: "Taxpayers.Name"}},
				Table:        "taxpayers",
				ResultColumn: "medicare_levy",
				ArgColumn:    "name",
			}},
		}},
	},
	Centre: {
		infoType: "welfare benefits and community support",
		docURL:   "http://www.centrelink.gov.au",
		schema: `
CREATE TABLE benefits (person_id INT PRIMARY KEY, name VARCHAR(64), benefit VARCHAR(32), fortnightly FLOAT);
INSERT INTO benefits VALUES
    (1, 'C. Ng', 'sickness allowance', 331.8), (2, 'D. Park', 'age pension', 466.5);`,
		iface: []codb.ExportedType{{
			Name: "Benefits",
			Functions: []codb.ExportedFunction{{
				Name: "Fortnightly", Returns: "real",
				Args:         []codb.TypedMember{{Type: "string", Name: "Benefits.Name"}},
				Table:        "benefits",
				ResultColumn: "fortnightly",
				ArgColumn:    "name",
			}},
		}},
	},
	Medicare: {
		infoType: "public health insurance claims",
		docURL:   "http://www.hic.gov.au/medicare",
		schema: `
CREATE TABLE rebates (rebate_id INT PRIMARY KEY, member VARCHAR(64), item VARCHAR(32), amount FLOAT);
INSERT INTO rebates VALUES
    (1, 'A. Howe', 'GP consult', 24.5), (2, 'C. Ng', 'specialist', 61.0),
    (3, 'B. Tran', 'radiology', 88.2);`,
		iface: []codb.ExportedType{{
			Name: "Rebates",
			Functions: []codb.ExportedFunction{{
				Name: "Amount", Returns: "real",
				Args:         []codb.TypedMember{{Type: "string", Name: "Rebates.Member"}},
				Table:        "rebates",
				ResultColumn: "amount",
				ArgColumn:    "member",
			}},
		}},
	},
	QUT: {
		infoType: "university medical research projects",
		docURL:   "http://www.qut.edu.au/research",
		schema: `
CREATE TABLE projects (project_id INT PRIMARY KEY, title VARCHAR(128), area VARCHAR(32), budget FLOAT);
INSERT INTO projects VALUES
    (1, 'Telemedicine in rural Queensland', 'health informatics', 210000),
    (2, 'Hospital information integration', 'databases', 95000);`,
		iface: []codb.ExportedType{{
			Name: "Projects",
			Functions: []codb.ExportedFunction{{
				Name: "Budget", Returns: "real",
				Args:         []codb.TypedMember{{Type: "string", Name: "Projects.Title"}},
				Table:        "projects",
				ResultColumn: "budget",
				ArgColumn:    "title",
			}},
		}},
	},
	MBF: {
		infoType: "medical benefits fund insurance",
		docURL:   "http://www.mbf.com.au",
		schema: `
CREATE TABLE members (member_id INT PRIMARY KEY, name VARCHAR(64), plan VARCHAR(32));
CREATE TABLE payouts (payout_id INT PRIMARY KEY, member_id INT, amount FLOAT, year INT);
INSERT INTO members VALUES (1, 'B. Tran', 'family'), (2, 'C. Ng', 'single');
INSERT INTO payouts VALUES (1, 1, 1020.0, 1998), (2, 2, 310.0, 1998);`,
		iface: []codb.ExportedType{{
			Name: "Members",
			Functions: []codb.ExportedFunction{{
				Name: "Plan", Returns: "string",
				Args:         []codb.TypedMember{{Type: "string", Name: "Members.Name"}},
				Table:        "members",
				ResultColumn: "plan",
				ArgColumn:    "name",
			}},
		}},
	},
	RBHUnion: {
		infoType: "medical workers union membership",
		docURL:   "http://www.rbh-union.org.au",
		schema: `
CREATE TABLE unionists (member_id INT PRIMARY KEY, name VARCHAR(64), role VARCHAR(32), since INT);
INSERT INTO unionists VALUES
    (1, 'N. Silva', 'nurse', 1991), (2, 'O. Brown', 'orderly', 1995);`,
		iface: []codb.ExportedType{{
			Name: "Unionists",
			Functions: []codb.ExportedFunction{{
				Name: "Role", Returns: "string",
				Args:         []codb.TypedMember{{Type: "string", Name: "Unionists.Name"}},
				Table:        "unionists",
				ResultColumn: "role",
				ArgColumn:    "name",
			}},
		}},
	},
}

// ooSpec describes a synthetic object-oriented database.
type ooSpec struct {
	infoType string
	docURL   string
	seed     func(*oodb.DB) error
	iface    []codb.ExportedType
}

func seedClassWith(db *oodb.DB, class string, attrs []oodb.Attribute, rows []map[string]any) error {
	if _, err := db.DefineClass(class, "", attrs...); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := db.NewObject(class, r); err != nil {
			return err
		}
	}
	return nil
}

var ooSpecs = map[string]ooSpec{
	AMP: {
		infoType: "superannuation and financial investment",
		docURL:   "http://www.amp.com.au",
		seed: func(db *oodb.DB) error {
			return seedClassWith(db, "SuperAccount",
				[]oodb.Attribute{
					{Name: "Holder", Type: oodb.AttrString},
					{Name: "Balance", Type: oodb.AttrFloat},
					{Name: "Fund", Type: oodb.AttrString},
				},
				[]map[string]any{
					{"Holder": "A. Howe", "Balance": 84000.0, "Fund": "balanced"},
					{"Holder": "D. Park", "Balance": 212000.0, "Fund": "conservative"},
				})
		},
		iface: []codb.ExportedType{{
			Name: "SuperAccount",
			Functions: []codb.ExportedFunction{{
				Name: "Balance", Returns: "real",
				Args:         []codb.TypedMember{{Type: "string", Name: "SuperAccount.Holder"}},
				Table:        "SuperAccount",
				ResultColumn: "Balance",
				ArgColumn:    "Holder",
			}},
		}},
	},
	PCH: {
		infoType: "cardiac hospital medical records",
		docURL:   "http://www.pch.health.qld.gov.au",
		seed: func(db *oodb.DB) error {
			return seedClassWith(db, "CardiacCase",
				[]oodb.Attribute{
					{Name: "Patient", Type: oodb.AttrString},
					{Name: "Procedure", Type: oodb.AttrString},
					{Name: "Outcome", Type: oodb.AttrString},
				},
				[]map[string]any{
					{"Patient": "E. Rossi", "Procedure": "bypass", "Outcome": "recovered"},
					{"Patient": "F. Khan", "Procedure": "stent", "Outcome": "recovered"},
				})
		},
		iface: []codb.ExportedType{{
			Name: "CardiacCase",
			Functions: []codb.ExportedFunction{{
				Name: "Outcome", Returns: "string",
				Args:         []codb.TypedMember{{Type: "string", Name: "CardiacCase.Patient"}},
				Table:        "CardiacCase",
				ResultColumn: "Outcome",
				ArgColumn:    "Patient",
			}},
		}},
	},
	QCF: {
		infoType: "cancer research funding and screening",
		docURL:   "http://www.qldcancer.org.au",
		seed: func(db *oodb.DB) error {
			return seedClassWith(db, "Program",
				[]oodb.Attribute{
					{Name: "Title", Type: oodb.AttrString},
					{Name: "Budget", Type: oodb.AttrFloat},
				},
				[]map[string]any{
					{"Title": "Melanoma screening", "Budget": 420000.0},
					{"Title": "Smoking cessation", "Budget": 150000.0},
				})
		},
		iface: []codb.ExportedType{{
			Name: "Program",
			Functions: []codb.ExportedFunction{{
				Name: "Budget", Returns: "real",
				Args:         []codb.TypedMember{{Type: "string", Name: "Program.Title"}},
				Table:        "Program",
				ResultColumn: "Budget",
				ArgColumn:    "Title",
			}},
		}},
	},
	Ambulance: {
		infoType: "ambulance callouts and response",
		docURL:   "http://www.ambulance.qld.gov.au",
		seed: func(db *oodb.DB) error {
			return seedClassWith(db, "Callout",
				[]oodb.Attribute{
					{Name: "Suburb", Type: oodb.AttrString},
					{Name: "Priority", Type: oodb.AttrInt},
					{Name: "Hospital", Type: oodb.AttrString},
				},
				[]map[string]any{
					{"Suburb": "Herston", "Priority": 1, "Hospital": RBH},
					{"Suburb": "Chermside", "Priority": 2, "Hospital": PCH},
				})
		},
		iface: []codb.ExportedType{{
			Name: "Callout",
			Functions: []codb.ExportedFunction{{
				Name: "Hospital", Returns: "string",
				Args:         []codb.TypedMember{{Type: "string", Name: "Callout.Suburb"}},
				Table:        "Callout",
				ResultColumn: "Hospital",
				ArgColumn:    "Suburb",
			}},
		}},
	},
	RMIT: {
		infoType: "medical research publications",
		docURL:   "http://www.rmit.edu.au/medical-research",
		seed: func(db *oodb.DB) error {
			return seedClassWith(db, "Publication",
				[]oodb.Attribute{
					{Name: "Title", Type: oodb.AttrString},
					{Name: "Journal", Type: oodb.AttrString},
					{Name: "Year", Type: oodb.AttrInt},
				},
				[]map[string]any{
					{"Title": "Antiviral trial outcomes", "Journal": "MJA", "Year": 1998},
					{"Title": "Imaging in oncology", "Journal": "Lancet", "Year": 1997},
				})
		},
		iface: []codb.ExportedType{{
			Name: "Publication",
			Functions: []codb.ExportedFunction{{
				Name: "Journal", Returns: "string",
				Args:         []codb.TypedMember{{Type: "string", Name: "Publication.Title"}},
				Table:        "Publication",
				ResultColumn: "Journal",
				ArgColumn:    "Title",
			}},
		}},
	},
}

// coalitions gives the five coalitions of Figure 1, in the order Build
// forms them.
var coalitions = []struct {
	name, description string
	members           []string
}{
	{CoalitionResearch, "medical research conducted in Queensland institutions", []string{QUT, RMIT, QCF, RBH}},
	{CoalitionMedical, "hospitals and medical care providers", []string{RBH, PCH}},
	{CoalitionInsurance, "medical insurance funds and health cover", []string{Medibank, MBF}},
	{CoalitionUnion, "medical workers union information", []string{RBHUnion}},
	{CoalitionSuper, "superannuation and retirement investment", []string{AMP}},
}

// linkSpecs gives the nine service links of Figure 1.
var linkSpecs = []core.LinkSpec{
	{Name: "SGF_to_Medicare", FromKind: "database", From: SGF, ToKind: "database", To: Medicare,
		InfoType: "public health insurance claims", Description: "state funding of medicare rebates"},
	{Name: "ATO_to_Medicare", FromKind: "database", From: ATO, ToKind: "database", To: Medicare,
		InfoType: "public health insurance claims", Description: "medicare levy collection"},
	{Name: "SGF_to_Medical", FromKind: "database", From: SGF, ToKind: "coalition", To: CoalitionMedical,
		InfoType: "hospital funding", Description: "grants to hospitals"},
	{Name: "ATO_to_Medical", FromKind: "database", From: ATO, ToKind: "coalition", To: CoalitionMedical,
		InfoType: "taxation of medical providers", Description: "tax records of providers"},
	{Name: "Super_to_Medical", FromKind: "coalition", From: CoalitionSuper, ToKind: "coalition", To: CoalitionMedical,
		InfoType: "medical retirement claims", Description: "early release on medical grounds"},
	{Name: "CentreLink_to_Medical", FromKind: "database", From: Centre, ToKind: "coalition", To: CoalitionMedical,
		InfoType: "sickness benefits", Description: "benefit eligibility checks"},
	{Name: "WorkersUnion_to_Medical", FromKind: "coalition", From: CoalitionUnion, ToKind: "coalition", To: CoalitionMedical,
		InfoType: "medical workers employment", Description: "union agreements with hospitals"},
	{Name: "Ambulance_to_Medical", FromKind: "database", From: Ambulance, ToKind: "coalition", To: CoalitionMedical,
		InfoType: "emergency admissions", Description: "callout handover to hospitals"},
	{Name: "Medical_to_MedicalInsurance", FromKind: "coalition", From: CoalitionMedical, ToKind: "coalition", To: CoalitionInsurance,
		InfoType: "Medical Insurance", Description: "minimal description of information type Medical"},
}

// Build assembles the full healthcare world: three ORBs, fourteen databases
// with co-databases, five coalitions and nine service links. An optional base
// orb.Options is applied to every ORB (see core.NewFederation); tests use it
// to force every invocation over real IIOP.
func Build(base ...orb.Options) (*World, error) {
	fed, err := core.NewFederation(base...)
	if err != nil {
		return nil, err
	}
	w := &World{Federation: fed}
	for _, name := range DatabaseNames() {
		place := placement[name]
		cfg := core.NodeConfig{
			Name:   name,
			Engine: place.Engine,
		}
		if spec, ok := relSpecs[name]; ok {
			cfg.InformationType = spec.infoType
			cfg.Documentation = spec.docURL
			cfg.Schema = spec.schema
			cfg.Interface = spec.iface
		} else if spec, ok := ooSpecs[name]; ok {
			cfg.InformationType = spec.infoType
			cfg.Documentation = spec.docURL
			cfg.SeedObjects = spec.seed
			cfg.Interface = spec.iface
		} else {
			fed.Shutdown()
			return nil, fmt.Errorf("medworld: no spec for %s", name)
		}
		if name == RBH {
			cfg.DocumentHTML = RBHDocumentHTML
			cfg.Location = "dba.icis.qut.edu.au"
		}
		if _, err := fed.AddNode(place.Product, cfg); err != nil {
			fed.Shutdown()
			return nil, fmt.Errorf("medworld: node %s: %w", name, err)
		}
	}
	for _, c := range coalitions {
		if err := fed.DefineCoalition(c.name, "", c.description, c.members...); err != nil {
			fed.Shutdown()
			return nil, fmt.Errorf("medworld: coalition %s: %w", c.name, err)
		}
	}
	for _, spec := range linkSpecs {
		if err := fed.AddLink(spec); err != nil {
			fed.Shutdown()
			return nil, fmt.Errorf("medworld: link %s: %w", spec.Name, err)
		}
	}
	return w, nil
}
