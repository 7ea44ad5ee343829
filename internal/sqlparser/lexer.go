package sqlparser

import (
	"fmt"
	"strings"
)

// lexer turns an input string into a token stream.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// errorf builds a positioned lex/parse error.
func (l *lexer) errorf(pos, line int, format string, args ...any) error {
	return fmt.Errorf("line %d (offset %d): %s", line, pos, fmt.Sprintf(format, args...))
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans and returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '\n':
			l.pos++
			l.line++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// SQL line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos, line: l.line}, nil

scan:
	start, line := l.pos, l.line
	c := l.src[l.pos]
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, pos: start, line: line}
	}
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if kw, ok := keyword(text); ok {
			return mk(tokKeyword, kw), nil
		}
		return mk(tokIdent, text), nil
	case isDigit(c):
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		// An exponent (1e+16, 1e-07, 2E5) needs a digit after the e and
		// its optional sign; otherwise the e starts the next token.
		if e := l.pos; e < len(l.src) && (l.src[e] == 'e' || l.src[e] == 'E') {
			if e++; e < len(l.src) && (l.src[e] == '+' || l.src[e] == '-') {
				e++
			}
			for ; e < len(l.src) && isDigit(l.src[e]); e++ {
				l.pos = e + 1
			}
		}
		return mk(tokNumber, l.src[start:l.pos]), nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf(start, line, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				// '' escapes a quote inside a string.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return mk(tokString, b.String()), nil
			}
			if ch == '\n' {
				l.line++
			}
			b.WriteByte(ch)
			l.pos++
		}
	}
	l.pos++
	switch c {
	case ',':
		return mk(tokComma, ","), nil
	case '.':
		return mk(tokDot, "."), nil
	case '(':
		return mk(tokLParen, "("), nil
	case ')':
		return mk(tokRParen, ")"), nil
	case ';':
		return mk(tokSemicolon, ";"), nil
	case '*':
		return mk(tokStar, "*"), nil
	case '+':
		return mk(tokPlus, "+"), nil
	case '-':
		return mk(tokMinus, "-"), nil
	case '/':
		return mk(tokSlash, "/"), nil
	case '=':
		return mk(tokEq, "="), nil
	case '!':
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return mk(tokNeq, "!="), nil
		}
		return token{}, l.errorf(start, line, "unexpected character %q", "!")
	case '<':
		if l.pos < len(l.src) {
			switch l.src[l.pos] {
			case '=':
				l.pos++
				return mk(tokLeq, "<="), nil
			case '>':
				l.pos++
				return mk(tokNeq, "<>"), nil
			}
		}
		return mk(tokLt, "<"), nil
	case '>':
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return mk(tokGeq, ">="), nil
		}
		return mk(tokGt, ">"), nil
	}
	return token{}, l.errorf(start, line, "unexpected character %q", string(c))
}
