package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a syntax error with its byte offset.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("parse error at offset %d: %s", e.Pos, e.Msg)
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(sql string) (Stmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	toks   []token
	pos    int
	params int
}

func (p *parser) peek() token  { return p.toks[p.pos] }
func (p *parser) peek2() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

// ident accepts an identifier (or a non-reserved keyword used as a name).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return t.text, nil
	}
	// Permit a few keywords commonly used as identifiers.
	if t.kind == tokKeyword {
		switch t.text {
		case "KEY", "INDEX", "COUNT", "MIN", "MAX", "SUM", "AVG", "TIMESTAMP", "DATABASE", "TEXT":
			p.next()
			return strings.ToLower(t.text), nil
		}
	}
	return "", p.errf("expected identifier, got %q", t.text)
}

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "EXPLAIN":
		p.next()
		analyze := false
		if a := p.peek(); a.kind == tokKeyword && a.text == "ANALYZE" {
			p.next()
			analyze = true
		}
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Inner: inner, Analyze: analyze}, nil
	case "SHOW":
		p.next()
		w := p.peek()
		if w.kind == tokIdent && (strings.EqualFold(w.text, "databases") || strings.EqualFold(w.text, "tables")) {
			p.next()
			return &ShowStmt{What: strings.ToUpper(w.text)}, nil
		}
		return nil, p.errf("expected DATABASES or TABLES after SHOW, got %q", w.text)
	case "DESCRIBE":
		p.next()
		ref, err := p.tableRef(false)
		if err != nil {
			return nil, err
		}
		return &DescribeStmt{Table: ref}, nil
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "TRUNCATE":
		p.next()
		p.acceptKw("TABLE")
		ref, err := p.tableRef(false)
		if err != nil {
			return nil, err
		}
		return &TruncateStmt{Table: ref}, nil
	case "BEGIN":
		p.next()
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.next()
		return &RollbackStmt{}, nil
	case "USE":
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &UseStmt{DB: name}, nil
	default:
		return nil, p.errf("unsupported statement %q", t.text)
	}
}

// tableRef parses [db.]table [AS alias].
func (p *parser) tableRef(allowAlias bool) (TableRef, error) {
	var ref TableRef
	name, err := p.ident()
	if err != nil {
		return ref, err
	}
	ref.Name = name
	if p.acceptSym(".") {
		ref.DB = ref.Name
		if ref.Name, err = p.ident(); err != nil {
			return ref, err
		}
	}
	if allowAlias {
		if p.acceptKw("AS") {
			if ref.Alias, err = p.ident(); err != nil {
				return ref, err
			}
		} else if p.peek().kind == tokIdent {
			ref.Alias = p.next().text
		}
	}
	return ref, nil
}

func (p *parser) createStmt() (Stmt, error) {
	p.next() // CREATE
	if p.acceptKw("DATABASE") {
		ifne, err := p.ifNotExists()
		if err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &CreateDatabaseStmt{Name: name, IfNotExists: ifne}, nil
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	ifne, err := p.ifNotExists()
	if err != nil {
		return nil, err
	}
	ref, err := p.tableRef(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Table: ref, IfNotExists: ifne}
	for {
		t := p.peek()
		switch {
		case t.kind == tokKeyword && t.text == "PRIMARY":
			p.next()
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenIdentList()
			if err != nil {
				return nil, err
			}
			stmt.PrimaryKey = cols
		case t.kind == tokKeyword && (t.text == "INDEX" || t.text == "UNIQUE"):
			unique := t.text == "UNIQUE"
			p.next()
			if unique {
				p.acceptKw("INDEX")
			}
			ixName := ""
			if p.peek().kind == tokIdent {
				ixName = p.next().text
			}
			cols, err := p.parenIdentList()
			if err != nil {
				return nil, err
			}
			if ixName == "" {
				ixName = "idx_" + strings.Join(cols, "_")
			}
			stmt.Indexes = append(stmt.Indexes, IndexDef{Name: ixName, Columns: cols, Unique: unique})
		default:
			col, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
		}
		if p.acceptSym(",") {
			continue
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		break
	}
	return stmt, nil
}

func (p *parser) ifNotExists() (bool, error) {
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return false, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (p *parser) parenIdentList() ([]string, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, name)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.ident()
	if err != nil {
		return col, err
	}
	col.Name = name
	t := p.next()
	if t.kind != tokKeyword {
		return col, &ParseError{t.pos, fmt.Sprintf("expected column type, got %q", t.text)}
	}
	switch t.text {
	case "INT", "INTEGER", "BIGINT":
		col.Type = KindInt
	case "DOUBLE", "FLOAT":
		col.Type = KindFloat
	case "VARCHAR", "TEXT":
		col.Type = KindString
	case "BOOLEAN", "BOOL":
		col.Type = KindBool
	case "TIMESTAMP", "DATETIME":
		col.Type = KindTime
	default:
		return col, &ParseError{t.pos, fmt.Sprintf("unsupported column type %q", t.text)}
	}
	if p.acceptSym("(") {
		sz := p.next()
		if sz.kind != tokInt {
			return col, &ParseError{sz.pos, "expected type length"}
		}
		n, _ := strconv.Atoi(sz.text)
		col.TypeArg = n
		if err := p.expectSym(")"); err != nil {
			return col, err
		}
	}
	for {
		switch {
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.acceptKw("NULL"):
			// accepted, default
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		default:
			return col, nil
		}
	}
}

func (p *parser) dropStmt() (Stmt, error) {
	p.next() // DROP
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	ref, err := p.tableRef(false)
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: ref, IfExists: ifExists}, nil
}

func (p *parser) insertStmt() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef(false)
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: ref}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		cols, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		stmt.Columns = cols
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	return stmt, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	p.next() // UPDATE
	ref, err := p.tableRef(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: ref}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		val, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, Assignment{col, val})
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		if stmt.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef(false)
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: ref}
	if p.acceptKw("WHERE") {
		if stmt.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.next() // SELECT
	stmt := &SelectStmt{}
	stmt.Distinct = p.acceptKw("DISTINCT")
	for {
		if p.acceptSym("*") {
			stmt.Exprs = append(stmt.Exprs, SelectExpr{Star: true})
		} else {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			se := SelectExpr{Expr: e}
			if p.acceptKw("AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				se.Alias = alias
			} else if p.peek().kind == tokIdent {
				se.Alias = p.next().text
			}
			stmt.Exprs = append(stmt.Exprs, se)
		}
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		ref, err := p.tableRef(true)
		if err != nil {
			return nil, err
		}
		stmt.From = &ref
		for {
			left := false
			if p.acceptKw("LEFT") {
				left = true
			} else if p.acceptKw("INNER") {
				// fallthrough to JOIN
			} else if p.peek().kind != tokKeyword || p.peek().text != "JOIN" {
				break
			}
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jref, err := p.tableRef(true)
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.expression()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, JoinClause{Left: left, Table: jref, On: on})
		}
	}
	var err error
	if p.acceptKw("WHERE") {
		if stmt.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("HAVING") {
		if stmt.Having, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		if stmt.Limit, err = p.expression(); err != nil {
			return nil, err
		}
		if p.acceptSym(",") { // LIMIT offset, count
			stmt.Offset = stmt.Limit
			if stmt.Limit, err = p.expression(); err != nil {
				return nil, err
			}
		}
	}
	if p.acceptKw("OFFSET") {
		if stmt.Offset, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or   := and (OR and)*
//	and  := not (AND not)*
//	not  := NOT not | cmp
//	cmp  := add ((=|!=|<>|<|<=|>|>=) add | IS [NOT] NULL | [NOT] IN (...)
//	        | [NOT] BETWEEN add AND add | [NOT] LIKE add)?
//	add  := mul ((+|-) mul)*
//	mul  := unary ((*|/|%) unary)*
//	unary := - unary | primary
func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{"OR", l, r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{"AND", l, r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{"NOT", x}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &Binary{op, l, r}, nil
		}
	}
	if t.kind == tokKeyword {
		not := false
		if t.text == "NOT" && p.peek2().kind == tokKeyword &&
			(p.peek2().text == "IN" || p.peek2().text == "BETWEEN" || p.peek2().text == "LIKE") {
			p.next()
			not = true
			t = p.peek()
		}
		switch t.text {
		case "IS":
			p.next()
			isNot := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			return &IsNullExpr{X: l, Not: isNot}, nil
		case "IN":
			p.next()
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if p.acceptSym(",") {
					continue
				}
				break
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &InExpr{X: l, List: list, Not: not}, nil
		case "BETWEEN":
			p.next()
			lo, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}, nil
		case "LIKE":
			p.next()
			pat, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &LikeExpr{X: l, Pattern: pat, Not: not}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &Binary{t.text, l, r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.next()
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &Binary{t.text, l, r}
			continue
		}
		return l, nil
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.acceptSym("-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok { // fold -literal
			switch lit.V.Kind() {
			case KindInt:
				return &Literal{NewInt(-lit.V.Int())}, nil
			case KindFloat:
				return &Literal{NewFloat(-lit.V.Float())}, nil
			}
		}
		return &Unary{"-", x}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, &ParseError{t.pos, "invalid integer literal"}
		}
		return &Literal{NewInt(n)}, nil
	case tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, &ParseError{t.pos, "invalid float literal"}
		}
		return &Literal{NewFloat(f)}, nil
	case tokString:
		p.next()
		return &Literal{NewString(t.text)}, nil
	case tokParam:
		p.next()
		e := &Param{Index: p.params}
		p.params++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Null}, nil
		case "TRUE":
			p.next()
			return &Literal{NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{NewBool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX", "IF":
			p.next()
			return p.funcCall(t.text)
		}
		return nil, &ParseError{t.pos, fmt.Sprintf("unexpected keyword %q in expression", t.text)}
	case tokIdent:
		// function call, qualified column, or bare column
		if p.peek2().kind == tokSymbol && p.peek2().text == "(" {
			return p.funcCall(upperName(p.next().text))
		}
		p.next()
		name := t.text
		if p.acceptSym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, &ParseError{t.pos, fmt.Sprintf("unexpected token %q in expression", t.text)}
}

// upperName upper-cases a function name. Rendered statements already carry
// upper-case names, so the common case returns its input without allocating.
func upperName(name string) string {
	for i := 0; i < len(name); i++ {
		if c := name[i]; 'a' <= c && c <= 'z' {
			return strings.ToUpper(name)
		}
	}
	return name
}

func (p *parser) funcCall(name string) (Expr, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.acceptSym("*") {
		fc.Star = true
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptSym(")") {
		return fc, nil
	}
	fc.Distinct = p.acceptKw("DISTINCT")
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return fc, nil
}
