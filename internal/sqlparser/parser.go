package sqlparser

import (
	"fmt"
	"math"
	"strconv"

	"aggview/internal/value"
)

// parser is a recursive-descent parser over a two-token window of the
// lexer — the previous and the current token — so a script is lexed as
// it is parsed and never held as a token slice. A lex error ends the
// token stream (every later token reads as EOF) and is what the entry
// points return, with the text and position the lexer gave it, whatever
// the parser made of the shortened stream. Tokens are lexed no further
// ahead than the parser looks, so a script with a parse error before its
// lex error reports the parse error: the lexer never got there.
type parser struct {
	lx     *lexer
	prev   token
	tok    token
	lexErr error // the lex error the stream ended at
}

// Parse parses a single SELECT query.
func Parse(src string) (*Select, error) {
	p := newParser(src)
	sel, err := p.parseQuery()
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return sel, err
}

func (p *parser) parseQuery() (*Select, error) {
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.cur().kind == tokSemicolon {
		p.advance()
	}
	if p.cur().kind != tokEOF {
		return nil, p.unexpected("end of query")
	}
	return sel, nil
}

// ParseScript parses a sequence of statements separated by semicolons:
// CREATE TABLE, CREATE VIEW and bare SELECT statements.
func ParseScript(src string) ([]Statement, error) {
	p := newParser(src)
	stmts, err := p.parseScript()
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return stmts, err
}

func (p *parser) parseScript() ([]Statement, error) {
	var stmts []Statement
	for {
		for p.cur().kind == tokSemicolon {
			p.advance()
		}
		if p.cur().kind == tokEOF {
			return stmts, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
		switch p.cur().kind {
		case tokSemicolon, tokEOF:
		default:
			return nil, p.unexpected("';' between statements")
		}
	}
}

func newParser(src string) *parser {
	p := &parser{lx: newLexer(src)}
	p.tok = p.lex()
	return p
}

// lex takes the next token off the lexer.
func (p *parser) lex() token {
	t, err := p.lx.next()
	if err != nil {
		// The stream ends here: the lexer has nothing left to read.
		p.lexErr, p.lx.pos = err, len(p.lx.src)
		return token{kind: tokEOF, pos: p.lx.pos, line: p.lx.line}
	}
	return t
}

func (p *parser) cur() token { return p.tok }

// advance consumes the current token.
func (p *parser) advance() {
	p.prev, p.tok = p.tok, p.lex()
}

func (p *parser) unexpected(want string) error {
	t := p.cur()
	got := t.kind.String()
	if t.kind == tokIdent || t.kind == tokKeyword || t.kind == tokNumber {
		got = fmt.Sprintf("%q", t.text)
	}
	return fmt.Errorf("line %d: expected %s, found %s", t.line, want, got)
}

// accept consumes the current token if it is the given keyword.
func (p *parser) accept(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.advance()
		return true
	}
	return false
}

// expectKeyword consumes a required keyword.
func (p *parser) expectKeyword(kw string) error {
	if !p.accept(kw) {
		return p.unexpected("'" + kw + "'")
	}
	return nil
}

// expect consumes a required token kind and returns it.
func (p *parser) expect(k tokenKind) (token, error) {
	if p.cur().kind != k {
		return token{}, p.unexpected(k.String())
	}
	t := p.cur()
	p.advance()
	return t, nil
}

func (p *parser) parseIdent() (string, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	if p.accept("CREATE") {
		switch {
		case p.accept("TABLE"):
			return p.parseCreateTable()
		case p.accept("VIEW"):
			return p.parseCreateView()
		default:
			return nil, p.unexpected("'TABLE' or 'VIEW' after CREATE")
		}
	}
	if p.accept("INSERT") {
		return p.parseInsert()
	}
	if p.accept("DELETE") {
		return p.parseDelete()
	}
	if p.accept("UPDATE") {
		return p.parseUpdate()
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &QueryStatement{Query: sel}, nil
}

// parseInsert parses INSERT INTO name VALUES (lit, ...), (...) with the
// INSERT keyword already consumed. Rows must be literal tuples of equal
// width.
func (p *parser) parseInsert() (*Insert, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	for {
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		var row []value.Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.cur().kind != tokComma {
				break
			}
			p.advance()
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if len(ins.Rows) > 0 && len(row) != len(ins.Rows[0]) {
			return nil, fmt.Errorf("line %d: INSERT rows have mixed widths (%d vs %d)",
				p.cur().line, len(row), len(ins.Rows[0]))
		}
		ins.Rows = append(ins.Rows, row)
		if p.cur().kind != tokComma {
			return ins, nil
		}
		p.advance()
	}
}

// parseDelete parses DELETE FROM name [WHERE cond] with the DELETE
// keyword already consumed.
func (p *parser) parseDelete() (*Delete, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: name}
	if p.accept("WHERE") {
		cond, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		d.Where = cond
	}
	return d, nil
}

// parseUpdate parses UPDATE name SET col = expr, ... [WHERE cond] with
// the UPDATE keyword already consumed. Assignment right-hand sides are
// arithmetic expressions over the row's old column values.
func (p *parser) parseUpdate() (*Update, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	u := &Update{Table: name}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq); err != nil {
			return nil, err
		}
		e, err := p.parseAddExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Col: col, Expr: e})
		if p.cur().kind != tokComma {
			break
		}
		p.advance()
	}
	if p.accept("WHERE") {
		cond, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		u.Where = cond
	}
	return u, nil
}

// parseLiteral parses one literal constant: a number (optionally
// signed), a quoted string, or TRUE/FALSE. NaN and Inf (optionally
// signed) read as the floats no number spells, as value.Value.String
// spells them, so that a row of any floats reads back as itself.
func (p *parser) parseLiteral() (value.Value, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		v, err := formatNumber(t.text)
		if err != nil {
			return value.Value{}, fmt.Errorf("line %d: bad number %q: %w", t.line, t.text, err)
		}
		return v, nil
	case t.kind == tokString:
		p.advance()
		return value.Str(t.text), nil
	case t.kind == tokIdent && (t.text == "NaN" || t.text == "Inf"):
		p.advance()
		if t.text == "NaN" {
			return value.Float(math.NaN()), nil
		}
		return value.Float(math.Inf(1)), nil
	case t.kind == tokMinus || t.kind == tokPlus:
		p.advance()
		if n := p.cur(); t.kind == tokMinus && n.kind == tokNumber {
			// A negative int is read whole: -2^63 is an int, 2^63 is not.
			if i, err := strconv.ParseInt("-"+n.text, 10, 64); err == nil {
				p.advance()
				return value.Int(i), nil
			}
		}
		inner, err := p.parseLiteral()
		if err != nil {
			return value.Value{}, err
		}
		switch {
		case !inner.IsNumeric():
			return value.Value{}, fmt.Errorf("line %d: '%s' applies to numbers only", t.line, t.text)
		case t.kind == tokPlus:
			return inner, nil
		case inner.Kind() == value.KindInt:
			return value.Int(-inner.AsInt()), nil
		}
		return value.Float(-inner.AsFloat()), nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.advance()
		return value.Bool(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.advance()
		return value.Bool(false), nil
	default:
		return value.Value{}, p.unexpected("literal value")
	}
}

func (p *parser) parseIdentList() ([]string, error) {
	var out []string
	for {
		id, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.cur().kind != tokComma {
			return out, nil
		}
		p.advance()
	}
}

func (p *parser) parseCreateTable() (*CreateTable, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cols, err := p.parseIdentList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name, Columns: cols}
	for {
		switch {
		case p.accept("KEY"):
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			key, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			ct.Keys = append(ct.Keys, key)
		case p.accept("FD"):
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			from, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokMinus); err != nil {
				return nil, p.unexpected("'->' in FD")
			}
			if _, err := p.expect(tokGt); err != nil {
				return nil, p.unexpected("'->' in FD")
			}
			to, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			ct.FDs = append(ct.FDs, [2][]string{from, to})
		default:
			return ct, nil
		}
	}
}

func (p *parser) parseCreateView() (*CreateView, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.cur().kind == tokLParen {
		p.advance()
		cols, err = p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateView{Name: name, Columns: cols, Query: sel}, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	sel.Distinct = p.accept("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.cur().kind != tokComma {
			break
		}
		p.advance()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		if p.cur().kind != tokComma {
			break
		}
		p.advance()
	}
	if p.accept("WHERE") {
		cond, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		sel.Where = cond
	}
	if p.accept("GROUPBY") || (p.accept("GROUP") && true) {
		// "GROUP" must be followed by "BY"; "GROUPBY" is accepted as one
		// word to match the paper's typography.
		if p.prev.text == "GROUP" {
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, col)
			if p.cur().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if p.accept("HAVING") {
		cond, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		sel.Having = cond
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseAddExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.cur().kind == tokLParen {
		p.advance()
		sub, err := p.parseSelect()
		if err != nil {
			return TableRef{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Subquery: sub}
		if p.accept("AS") {
			alias, err := p.parseIdent()
			if err != nil {
				return TableRef{}, err
			}
			ref.Alias = alias
		} else if p.cur().kind == tokIdent {
			ref.Alias = p.cur().text
			p.advance()
		}
		if ref.Alias == "" {
			return TableRef{}, p.unexpected("alias after derived table")
		}
		return ref, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.accept("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.cur().kind == tokIdent {
		ref.Alias = p.cur().text
		p.advance()
	}
	return ref, nil
}

// parseCondition parses an AND-combined conjunction of comparisons.
// Disjunction and negation are rejected with a clear message: the paper
// (and hence this implementation) covers conjunctions only.
func (p *parser) parseCondition() (Expr, error) {
	var out Expr
	for {
		cmp, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = cmp
		} else {
			out = &BinExpr{Op: OpAnd, L: out, R: cmp}
		}
		if p.cur().kind == tokKeyword && (p.cur().text == "OR" || p.cur().text == "NOT") {
			return nil, fmt.Errorf("line %d: %s is not supported: conditions must be conjunctions of comparisons", p.cur().line, p.cur().text)
		}
		if !p.accept("AND") {
			return out, nil
		}
	}
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	// BETWEEN is conjunction sugar within the paper's fragment:
	// A BETWEEN x AND y parses as A >= x AND A <= y.
	if p.accept("BETWEEN") {
		lo, err := p.parseAddExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAddExpr()
		if err != nil {
			return nil, err
		}
		return &BinExpr{
			Op: OpAnd,
			L:  &BinExpr{Op: OpGeq, L: l, R: lo},
			R:  &BinExpr{Op: OpLeq, L: l, R: hi},
		}, nil
	}
	var op BinOp
	switch p.cur().kind {
	case tokEq:
		op = OpEq
	case tokNeq:
		op = OpNeq
	case tokLt:
		op = OpLt
	case tokLeq:
		op = OpLeq
	case tokGt:
		op = OpGt
	case tokGeq:
		op = OpGeq
	default:
		return nil, p.unexpected("comparison operator")
	}
	p.advance()
	r, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	return &BinExpr{Op: op, L: l, R: r}, nil
}

func (p *parser) parseAddExpr() (Expr, error) {
	l, err := p.parseMulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().kind {
		case tokPlus:
			op = OpAdd
		case tokMinus:
			op = OpSub
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMulExpr() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().kind {
		case tokStar:
			op = OpMul
		case tokSlash:
			op = OpDiv
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := formatNumber(t.text)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad number %q: %w", t.line, t.text, err)
		}
		return &Lit{Val: v}, nil
	case tokString:
		p.advance()
		return &Lit{Val: value.Str(t.text)}, nil
	case tokMinus:
		p.advance()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if lit, ok := inner.(*Lit); ok && lit.Val.IsNumeric() {
			if lit.Val.Kind() == value.KindInt {
				return &Lit{Val: value.Int(-lit.Val.AsInt())}, nil
			}
			return &Lit{Val: value.Float(-lit.Val.AsFloat())}, nil
		}
		return &BinExpr{Op: OpSub, L: &Lit{Val: value.Int(0)}, R: inner}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseAddExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokKeyword:
		switch t.text {
		case "MIN", "MAX", "SUM", "COUNT", "AVG":
			return p.parseAgg(AggFunc(t.text))
		case "TRUE":
			p.advance()
			return &Lit{Val: value.Bool(true)}, nil
		case "FALSE":
			p.advance()
			return &Lit{Val: value.Bool(false)}, nil
		}
	case tokIdent:
		return p.parseColumnRefExpr()
	}
	return nil, p.unexpected("expression")
}

func (p *parser) parseAgg(fn AggFunc) (Expr, error) {
	p.advance() // the function keyword
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if p.cur().kind == tokStar {
		if fn != AggCount {
			return nil, fmt.Errorf("line %d: %s(*) is not valid SQL; only COUNT(*)", p.cur().line, fn)
		}
		p.advance()
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &AggExpr{Func: fn, Star: true}, nil
	}
	arg, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return &AggExpr{Func: fn, Arg: arg}, nil
}

func (p *parser) parseColumnRefExpr() (Expr, error) {
	return p.parseColumnRef()
}

func (p *parser) parseColumnRef() (*ColumnRef, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokDot {
		p.advance()
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Qualifier: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}
