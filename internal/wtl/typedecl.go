package wtl

import (
	"fmt"
	"strings"
)

// TypeDecl is a parsed WebTassili exported-type declaration, the syntax the
// paper uses to advertise database interfaces (§2.2):
//
//	Type PatientHistory {
//	    attribute string Patient.Name;
//	    attribute date History.DateRecorded;
//	    function string Description(string Patient.Name, date History.DateRecorded);
//	}
type TypeDecl struct {
	Name       string
	Attributes []Member
	Functions  []FuncDecl
}

// FuncDecl is one access-routine declaration within a type.
type FuncDecl struct {
	Name    string
	Returns string
	Args    []Member
}

// ParseTypeDecls parses one or more Type declarations from a source text.
// A trailing "Predicate(x)" pseudo-argument (the paper writes it to show
// where the selection predicate goes) is accepted and dropped.
func ParseTypeDecls(src string) ([]TypeDecl, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []TypeDecl
	for p.peek().kind != kEOF {
		td, err := p.parseTypeDecl()
		if err != nil {
			return nil, err
		}
		out = append(out, td)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("wtl: no Type declarations found")
	}
	return out, nil
}

func (p *parser) parseTypeDecl() (TypeDecl, error) {
	var td TypeDecl
	if err := p.expectWord("Type"); err != nil {
		return td, err
	}
	name := p.next()
	if name.kind != kWord {
		return td, fmt.Errorf("wtl: expected type name, got %q", name.text)
	}
	td.Name = name.text
	if err := p.expect("{"); err != nil {
		return td, err
	}
	for p.peek().text != "}" {
		switch {
		case p.acceptWord("attribute"):
			m, err := p.parseMember()
			if err != nil {
				return td, err
			}
			td.Attributes = append(td.Attributes, m)
			p.accept(";")
		case p.acceptWord("function"):
			fd, err := p.parseFuncDecl()
			if err != nil {
				return td, err
			}
			td.Functions = append(td.Functions, fd)
			p.accept(";")
		default:
			return td, fmt.Errorf("wtl: expected attribute or function in type %s, got %q",
				td.Name, p.peek().text)
		}
		if p.peek().kind == kEOF {
			return td, fmt.Errorf("wtl: unterminated type %s", td.Name)
		}
	}
	p.next() // }
	p.accept(";")
	return td, nil
}

func (p *parser) parseMember() (Member, error) {
	typ := p.next()
	if typ.kind != kWord {
		return Member{}, fmt.Errorf("wtl: expected member type, got %q", typ.text)
	}
	name, err := p.qualifiedColumn()
	if err != nil {
		return Member{}, err
	}
	return Member{Type: typ.text, Name: name}, nil
}

func (p *parser) parseFuncDecl() (FuncDecl, error) {
	var fd FuncDecl
	ret := p.next()
	if ret.kind != kWord {
		return fd, fmt.Errorf("wtl: expected function return type, got %q", ret.text)
	}
	fd.Returns = ret.text
	name := p.next()
	if name.kind != kWord {
		return fd, fmt.Errorf("wtl: expected function name, got %q", name.text)
	}
	fd.Name = name.text
	if err := p.expect("("); err != nil {
		return fd, err
	}
	for p.peek().text != ")" {
		// The paper writes a final "Predicate(x)" pseudo-argument.
		if strings.EqualFold(p.peek().text, "Predicate") {
			p.next()
			if err := p.expect("("); err != nil {
				return fd, err
			}
			p.next() // the predicate variable
			if err := p.expect(")"); err != nil {
				return fd, err
			}
		} else {
			m, err := p.parseMember()
			if err != nil {
				return fd, err
			}
			// The paper sometimes names the formal ("... Title x"); accept
			// and drop a trailing bare word.
			if p.peek().kind == kWord && p.toks[p.pos+1].text == "," ||
				p.peek().kind == kWord && p.toks[p.pos+1].text == ")" {
				p.next()
			}
			fd.Args = append(fd.Args, m)
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return fd, err
	}
	return fd, nil
}
