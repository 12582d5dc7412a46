package sqlengine

import (
	"fmt"
	"strings"
)

// Stmt is a parsed SQL statement (the AST root). String renders it back to
// SQL through the printer (sqlPrinter below); renderSQL is the same printer
// with arguments, producing the fully-interpolated text recorded in the
// binlog. The canonical String rendering also serves as the normalized-SQL
// key of the plan cache: two texts differing only in whitespace or keyword
// case share one entry.
//
// Stmt is the raw parse-tree layer. The prepared-statement handle the engine
// hands out is *Statement (prepare.go), which wraps a Stmt together with its
// normalization and plan-cache identity.
type Stmt interface {
	String() string
	stmt()
}

// TableRef names a table, optionally database-qualified and aliased.
type TableRef struct {
	DB    string
	Name  string
	Alias string
}

func (t TableRef) String() string {
	s := t.Name
	if t.DB != "" {
		s = t.DB + "." + t.Name
	}
	if t.Alias != "" {
		s += " AS " + t.Alias
	}
	return s
}

// refName returns the name the table is known by in scope.
func (t TableRef) refName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// ColumnDef defines a column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       Kind
	TypeArg    int // VARCHAR length / TIMESTAMP precision, 0 when absent
	NotNull    bool
	PrimaryKey bool
}

func (c ColumnDef) String() string {
	s := c.Name + " " + typeName(c.Type, c.TypeArg)
	if c.NotNull {
		s += " NOT NULL"
	}
	if c.PrimaryKey {
		s += " PRIMARY KEY"
	}
	return s
}

func typeName(k Kind, arg int) string {
	switch k {
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		if arg > 0 {
			return fmt.Sprintf("VARCHAR(%d)", arg)
		}
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		if arg > 0 {
			return fmt.Sprintf("TIMESTAMP(%d)", arg)
		}
		return "TIMESTAMP"
	default:
		return k.String()
	}
}

// IndexDef defines a secondary index in CREATE TABLE.
type IndexDef struct {
	Name    string
	Columns []string
	Unique  bool
}

func (ix IndexDef) String() string {
	kw := "INDEX"
	if ix.Unique {
		kw = "UNIQUE INDEX"
	}
	return fmt.Sprintf("%s %s(%s)", kw, ix.Name, strings.Join(ix.Columns, ", "))
}

// CreateDatabaseStmt is CREATE DATABASE.
type CreateDatabaseStmt struct {
	Name        string
	IfNotExists bool
}

func (s *CreateDatabaseStmt) String() string {
	ifne := ""
	if s.IfNotExists {
		ifne = "IF NOT EXISTS "
	}
	return "CREATE DATABASE " + ifne + s.Name
}
func (*CreateDatabaseStmt) stmt() {}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Table       TableRef
	Columns     []ColumnDef
	PrimaryKey  []string // table-level PK, empty when inline
	Indexes     []IndexDef
	IfNotExists bool
}

func (s *CreateTableStmt) String() string {
	var parts []string
	for _, c := range s.Columns {
		parts = append(parts, c.String())
	}
	if len(s.PrimaryKey) > 0 {
		parts = append(parts, "PRIMARY KEY ("+strings.Join(s.PrimaryKey, ", ")+")")
	}
	for _, ix := range s.Indexes {
		parts = append(parts, ix.String())
	}
	ifne := ""
	if s.IfNotExists {
		ifne = "IF NOT EXISTS "
	}
	return "CREATE TABLE " + ifne + s.Table.String() + " (" + strings.Join(parts, ", ") + ")"
}
func (*CreateTableStmt) stmt() {}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Table    TableRef
	IfExists bool
}

func (s *DropTableStmt) String() string {
	ife := ""
	if s.IfExists {
		ife = "IF EXISTS "
	}
	return "DROP TABLE " + ife + s.Table.String()
}
func (*DropTableStmt) stmt() {}

// TruncateStmt is TRUNCATE TABLE.
type TruncateStmt struct {
	Table TableRef
}

func (s *TruncateStmt) String() string { return "TRUNCATE TABLE " + s.Table.String() }
func (*TruncateStmt) stmt()            {}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table   TableRef
	Columns []string
	Rows    [][]Expr
}

func (s *InsertStmt) String() string { return renderSQL(s, nil, 0) }
func (*InsertStmt) stmt()            {}

// Assignment is one SET clause of UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table TableRef
	Sets  []Assignment
	Where Expr
}

func (s *UpdateStmt) String() string { return renderSQL(s, nil, 0) }
func (*UpdateStmt) stmt()            {}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table TableRef
	Where Expr
}

func (s *DeleteStmt) String() string { return renderSQL(s, nil, 0) }
func (*DeleteStmt) stmt()            {}

// SelectExpr is one projection of a SELECT.
type SelectExpr struct {
	Star  bool // SELECT *
	Expr  Expr
	Alias string
}

func (se SelectExpr) String() string {
	var p sqlPrinter
	p.selectExpr(se)
	return p.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	var p sqlPrinter
	p.orderItem(o)
	return p.String()
}

// JoinClause is an INNER/LEFT join.
type JoinClause struct {
	Left  bool
	Table TableRef
	On    Expr
}

func (j JoinClause) String() string {
	var p sqlPrinter
	p.join(j)
	return p.String()
}

// SelectStmt is SELECT.
type SelectStmt struct {
	Distinct bool
	Exprs    []SelectExpr
	From     *TableRef // nil for table-less SELECT
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil when absent
	Offset   Expr

	// norm caches the canonical String() rendering used as the plan-cache
	// key. Written only under the engine mutex (planner).
	norm string
}

// normKey returns the memoized canonical rendering of the statement.
func (s *SelectStmt) normKey() string {
	if s.norm == "" {
		s.norm = s.String()
	}
	return s.norm
}

func (s *SelectStmt) String() string { return renderSQL(s, nil, 0) }
func (*SelectStmt) stmt()            {}

// BeginStmt is BEGIN.
type BeginStmt struct{}

func (*BeginStmt) String() string { return "BEGIN" }
func (*BeginStmt) stmt()          {}

// CommitStmt is COMMIT.
type CommitStmt struct{}

func (*CommitStmt) String() string { return "COMMIT" }
func (*CommitStmt) stmt()          {}

// RollbackStmt is ROLLBACK.
type RollbackStmt struct{}

func (*RollbackStmt) String() string { return "ROLLBACK" }
func (*RollbackStmt) stmt()          {}

// UseStmt is USE db.
type UseStmt struct{ DB string }

func (s *UseStmt) String() string { return "USE " + s.DB }
func (*UseStmt) stmt()            {}

// Expr is an expression node.
type Expr interface {
	String() string
	expr()
}

// Literal is a constant value.
type Literal struct{ V Value }

func (l *Literal) String() string { return l.V.SQL() }
func (*Literal) expr()            {}

// Param is a positional ? placeholder.
type Param struct{ Index int }

func (*Param) String() string { return "?" }
func (*Param) expr()          {}

// ColRef references a column, optionally qualified by table name or alias.
// The unexported fields memoize name resolution: parsed ASTs are cached
// and re-executed many times, and resolving the same column to the same
// position on every row was the single hottest line of the executor. The
// cache is written only under the engine's execution mutex and is keyed by
// table pointer, so DDL that rebuilds a table invalidates it naturally.
type ColRef struct {
	Table, Name string

	lname string // Table lowered once, "" until first qualified resolve
	ctbl  *Table // table the ref last resolved against
	cpos  int    // column position in ctbl
}

func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}
func (*ColRef) expr() {}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (u *Unary) String() string { return exprString(u) }
func (*Unary) expr()            {}

// Binary is a binary operation: comparison, logic or arithmetic.
type Binary struct {
	Op   string // = != <> < <= > >= AND OR + - * / %
	L, R Expr
}

func (b *Binary) String() string { return exprString(b) }
func (*Binary) expr()            {}

// FuncCall is a builtin or aggregate call.
type FuncCall struct {
	Name     string // uppercased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (f *FuncCall) String() string { return exprString(f) }
func (*FuncCall) expr()            {}

// InExpr is x [NOT] IN (list).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

func (e *InExpr) String() string { return exprString(e) }
func (*InExpr) expr()            {}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (e *BetweenExpr) String() string { return exprString(e) }
func (*BetweenExpr) expr()            {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (e *IsNullExpr) String() string { return exprString(e) }
func (*IsNullExpr) expr()            {}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

func (e *LikeExpr) String() string { return exprString(e) }
func (*LikeExpr) expr()            {}

// sqlPrinter renders AST nodes as SQL text; every String method above goes
// through it. With args set, each ? renders as its argument's literal
// (Value.SQL) — the replayable text a statement-format binlog records for a
// write — so a template and its bound rendering share one layout by
// construction. Expressions are fully parenthesized, so the output re-parses
// at any precedence level.
type sqlPrinter struct {
	strings.Builder
	args []Value
}

// renderSQL renders stmt with args interpolated into its placeholders (nil
// args leave them as ?). sizeHint, when known, sizes the buffer so the
// rendering takes one allocation. Callers check the argument count first.
func renderSQL(stmt Stmt, args []Value, sizeHint int) string {
	p := sqlPrinter{args: args}
	p.Grow(sizeHint)
	p.stmt(stmt)
	return p.String()
}

// exprString renders one expression with its placeholders as ?.
func exprString(e Expr) string {
	var p sqlPrinter
	p.expr(e)
	return p.String()
}

func (p *sqlPrinter) stmt(s Stmt) {
	switch s := s.(type) {
	case *InsertStmt:
		p.WriteString("INSERT INTO ")
		p.WriteString(s.Table.String())
		if len(s.Columns) > 0 {
			p.WriteString(" (")
			for i, c := range s.Columns {
				if i > 0 {
					p.WriteString(", ")
				}
				p.WriteString(c)
			}
			p.WriteString(")")
		}
		p.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				p.WriteString(", ")
			}
			p.WriteString("(")
			p.exprList(row)
			p.WriteString(")")
		}
	case *UpdateStmt:
		p.WriteString("UPDATE ")
		p.WriteString(s.Table.String())
		p.WriteString(" SET ")
		for i, a := range s.Sets {
			if i > 0 {
				p.WriteString(", ")
			}
			p.WriteString(a.Column)
			p.WriteString(" = ")
			p.expr(a.Value)
		}
		p.where(s.Where)
	case *DeleteStmt:
		p.WriteString("DELETE FROM ")
		p.WriteString(s.Table.String())
		p.where(s.Where)
	case *SelectStmt:
		p.selectStmt(s)
	case *ExplainStmt:
		p.WriteString("EXPLAIN ")
		if s.Analyze {
			p.WriteString("ANALYZE ")
		}
		p.stmt(s.Inner)
	default: // statements without expressions
		p.WriteString(s.String())
	}
}

func (p *sqlPrinter) selectStmt(s *SelectStmt) {
	p.WriteString("SELECT ")
	if s.Distinct {
		p.WriteString("DISTINCT ")
	}
	for i, e := range s.Exprs {
		if i > 0 {
			p.WriteString(", ")
		}
		p.selectExpr(e)
	}
	if s.From != nil {
		p.WriteString(" FROM ")
		p.WriteString(s.From.String())
	}
	for _, j := range s.Joins {
		p.WriteString(" ")
		p.join(j)
	}
	p.where(s.Where)
	if len(s.GroupBy) > 0 {
		p.WriteString(" GROUP BY ")
		p.exprList(s.GroupBy)
	}
	if s.Having != nil {
		p.WriteString(" HAVING ")
		p.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		p.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				p.WriteString(", ")
			}
			p.orderItem(o)
		}
	}
	if s.Limit != nil {
		p.WriteString(" LIMIT ")
		p.expr(s.Limit)
	}
	if s.Offset != nil {
		p.WriteString(" OFFSET ")
		p.expr(s.Offset)
	}
}

func (p *sqlPrinter) where(e Expr) {
	if e != nil {
		p.WriteString(" WHERE ")
		p.expr(e)
	}
}

func (p *sqlPrinter) selectExpr(se SelectExpr) {
	if se.Star {
		p.WriteString("*")
		return
	}
	p.expr(se.Expr)
	if se.Alias != "" {
		p.WriteString(" AS ")
		p.WriteString(se.Alias)
	}
}

func (p *sqlPrinter) orderItem(o OrderItem) {
	p.expr(o.Expr)
	if o.Desc {
		p.WriteString(" DESC")
	}
}

func (p *sqlPrinter) join(j JoinClause) {
	if j.Left {
		p.WriteString("LEFT ")
	}
	p.WriteString("JOIN ")
	p.WriteString(j.Table.String())
	p.WriteString(" ON ")
	p.expr(j.On)
}

func (p *sqlPrinter) exprList(es []Expr) {
	for i, e := range es {
		if i > 0 {
			p.WriteString(", ")
		}
		p.expr(e)
	}
}

func (p *sqlPrinter) expr(e Expr) {
	switch e := e.(type) {
	case *Literal:
		e.V.writeSQL(&p.Builder)
	case *Param:
		if e.Index < len(p.args) {
			p.args[e.Index].writeSQL(&p.Builder)
		} else {
			p.WriteString("?")
		}
	case *Unary:
		if e.Op == "NOT" {
			p.WriteString("(NOT (")
		} else {
			p.WriteString("(-(")
		}
		p.expr(e.X)
		p.WriteString("))")
	case *Binary:
		p.WriteString("(")
		p.expr(e.L)
		p.WriteString(" ")
		p.WriteString(e.Op)
		p.WriteString(" ")
		p.expr(e.R)
		p.WriteString(")")
	case *FuncCall:
		p.WriteString(e.Name)
		if e.Star {
			p.WriteString("(*)")
			return
		}
		p.WriteString("(")
		if e.Distinct {
			p.WriteString("DISTINCT ")
		}
		p.exprList(e.Args)
		p.WriteString(")")
	case *InExpr:
		p.WriteString("(")
		p.expr(e.X)
		if e.Not {
			p.WriteString(" NOT IN (")
		} else {
			p.WriteString(" IN (")
		}
		p.exprList(e.List)
		p.WriteString("))")
	case *BetweenExpr:
		p.WriteString("(")
		p.expr(e.X)
		if e.Not {
			p.WriteString(" NOT BETWEEN ")
		} else {
			p.WriteString(" BETWEEN ")
		}
		p.expr(e.Lo)
		p.WriteString(" AND ")
		p.expr(e.Hi)
		p.WriteString(")")
	case *IsNullExpr:
		p.WriteString("(")
		p.expr(e.X)
		if e.Not {
			p.WriteString(" IS NOT NULL)")
		} else {
			p.WriteString(" IS NULL)")
		}
	case *LikeExpr:
		p.WriteString("(")
		p.expr(e.X)
		if e.Not {
			p.WriteString(" NOT LIKE ")
		} else {
			p.WriteString(" LIKE ")
		}
		p.expr(e.Pattern)
		p.WriteString(")")
	case *ColRef:
		if e.Table != "" {
			p.WriteString(e.Table)
			p.WriteString(".")
		}
		p.WriteString(e.Name)
	default:
		p.WriteString(e.String())
	}
}
