// Package sqlparser implements a lexer and recursive-descent parser for
// the SQL dialect used in the paper: single-block
// SELECT-FROM-WHERE-GROUPBY-HAVING queries with the aggregate functions
// MIN, MAX, SUM, COUNT and AVG, plus the CREATE TABLE / CREATE VIEW
// statements needed to describe a workload in one script.
package sqlparser

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokSemicolon
	tokStar
	tokPlus
	tokMinus
	tokSlash
	tokEq  // =
	tokNeq // <> or !=
	tokLt  // <
	tokLeq // <=
	tokGt  // >
	tokGeq // >=
	tokKeyword
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokSemicolon:
		return "';'"
	case tokStar:
		return "'*'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokSlash:
		return "'/'"
	case tokEq:
		return "'='"
	case tokNeq:
		return "'<>'"
	case tokLt:
		return "'<'"
	case tokLeq:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGeq:
		return "'>='"
	case tokKeyword:
		return "keyword"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// token is one lexical token with its source position (for error messages).
type token struct {
	kind tokenKind
	text string // identifier text, keyword (upper-cased), number or string payload
	pos  int    // byte offset in the input
	line int    // 1-based line number
}

// keywords recognised by the lexer, each mapped to itself: identifiers
// matching these (case-insensitively) become tokKeyword with the
// upper-cased text, the table's own string (keyword).
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range strings.Fields(`SELECT DISTINCT FROM WHERE GROUP BY GROUPBY HAVING
		AND AS MIN MAX SUM COUNT AVG CREATE TABLE VIEW KEY FD NOT OR TRUE FALSE
		BETWEEN INSERT INTO VALUES DELETE UPDATE SET`) {
		m[k] = k
	}
	return m
}()

// keyword returns the keyword text spells in any letter case, upper-cased,
// and whether it is one. It allocates nothing: text is upper-cased into a
// buffer on the stack, which the map lookup reads without copying.
func keyword(text string) (string, bool) {
	var buf [8]byte // DISTINCT, the longest keyword
	if len(text) > len(buf) {
		return "", false
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(text)])]
	return kw, ok
}
