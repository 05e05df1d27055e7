package relational

import (
	"fmt"
	"strings"
)

// tokKind enumerates SQL token kinds.
type tokKind byte

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokPunct // ( ) , . ; * = < > <= >= <> != + - / %
)

type token struct {
	kind tokKind
	text string // keywords upper-cased; identifiers as written
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return t.text
	}
}

// sqlKeywords is the reserved-word set recognised by the lexer.
var sqlKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true, "DROP": true,
	"INDEX": true, "ON": true, "PRIMARY": true, "KEY": true, "NULL": true,
	"DEFAULT": true, "ORDER": true, "BY": true, "GROUP": true, "HAVING": true,
	"LIMIT": true, "OFFSET": true, "ASC": true, "DESC": true, "AS": true,
	"JOIN": true, "INNER": true, "LEFT": true, "OUTER": true, "CROSS": true,
	"LIKE": true, "IN": true, "BETWEEN": true, "IS": true, "DISTINCT": true,
	"TRUE": true, "FALSE": true, "BEGIN": true, "COMMIT": true,
	"ROLLBACK": true, "INTEGER": true, "INT": true, "FLOAT": true,
	"REAL": true, "DOUBLE": true, "VARCHAR": true, "CHAR": true, "TEXT": true,
	"BOOLEAN": true, "DATE": true, "UNIQUE": true, "IF": true, "EXISTS": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"TRANSACTION": true, "WORK": true, "UNION": true, "ALL": true,
	"EXPLAIN": true,
}

// lexSQLInto tokenises into a caller-provided buffer (reset to length zero),
// letting pooled parsers reuse their token arrays across statements.
func lexSQLInto(src string, toks []token) ([]token, error) {
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // -- comment
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("sql: unterminated comment at offset %d", i)
			}
			i += 2 + end + 2
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
				}
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			seenDot := false
			for i < n {
				d := src[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				break
			}
			toks = append(toks, token{tokNumber, src[start:i], start})
		case isSQLIdentStart(c):
			start := i
			for i < n && isSQLIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if sqlKeywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c == '"': // quoted identifier
			start := i
			i++
			j := strings.IndexByte(src[i:], '"')
			if j < 0 {
				return nil, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
			}
			toks = append(toks, token{tokIdent, src[i : i+j], start})
			i += j + 1
		default:
			start := i
			// multi-char operators
			if i+1 < n {
				two := src[i : i+2]
				switch two {
				case "<=", ">=", "<>", "!=", "||":
					toks = append(toks, token{tokPunct, two, start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '.', ';', '*', '=', '<', '>', '+', '-', '/', '%':
				toks = append(toks, token{tokPunct, string(c), start})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isSQLIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isSQLIdentPart(c byte) bool {
	return isSQLIdentStart(c) || (c >= '0' && c <= '9')
}
