package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, sql string) Stmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE IF NOT EXISTS events (
		id BIGINT PRIMARY KEY,
		title VARCHAR(100) NOT NULL,
		score DOUBLE,
		created TIMESTAMP(6),
		live BOOLEAN,
		INDEX idx_title (title),
		UNIQUE uq_score (score)
	)`)
	ct, ok := stmt.(*CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if !ct.IfNotExists || ct.Table.Name != "events" {
		t.Fatalf("header parsed wrong: %+v", ct)
	}
	if len(ct.Columns) != 5 {
		t.Fatalf("columns = %d, want 5", len(ct.Columns))
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != KindInt {
		t.Fatalf("id column: %+v", ct.Columns[0])
	}
	if ct.Columns[1].TypeArg != 100 || !ct.Columns[1].NotNull {
		t.Fatalf("title column: %+v", ct.Columns[1])
	}
	if len(ct.Indexes) != 2 || !ct.Indexes[1].Unique {
		t.Fatalf("indexes: %+v", ct.Indexes)
	}
}

func TestParseCreateTableTablePK(t *testing.T) {
	stmt := mustParse(t, "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))")
	ct := stmt.(*CreateTableStmt)
	if len(ct.PrimaryKey) != 2 {
		t.Fatalf("PK = %v", ct.PrimaryKey)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	ins := stmt.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("parsed %+v", ins)
	}
}

func TestParseQualifiedTable(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO heartbeats.heartbeat (id, ts) VALUES (?, UTC_MICROS())")
	ins := stmt.(*InsertStmt)
	if ins.Table.DB != "heartbeats" || ins.Table.Name != "heartbeat" {
		t.Fatalf("table ref: %+v", ins.Table)
	}
	if _, ok := ins.Rows[0][0].(*Param); !ok {
		t.Fatalf("first value should be param, got %T", ins.Rows[0][0])
	}
	fc, ok := ins.Rows[0][1].(*FuncCall)
	if !ok || fc.Name != "UTC_MICROS" {
		t.Fatalf("second value: %v", ins.Rows[0][1])
	}
}

func TestParseSelectFull(t *testing.T) {
	stmt := mustParse(t, `SELECT e.id, u.name AS creator, COUNT(*) cnt
		FROM events e JOIN users u ON e.creator_id = u.id
		WHERE e.score > 3.5 AND u.name LIKE 'a%'
		GROUP BY e.id ORDER BY cnt DESC, e.id LIMIT 10 OFFSET 5`)
	sel := stmt.(*SelectStmt)
	if len(sel.Exprs) != 3 || sel.Exprs[1].Alias != "creator" || sel.Exprs[2].Alias != "cnt" {
		t.Fatalf("projections: %+v", sel.Exprs)
	}
	if sel.From.Alias != "e" || len(sel.Joins) != 1 || sel.Joins[0].Table.Alias != "u" {
		t.Fatalf("from/join: %+v %+v", sel.From, sel.Joins)
	}
	if len(sel.GroupBy) != 1 || len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc {
		t.Fatalf("group/order: %+v %+v", sel.GroupBy, sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Fatal("limit/offset missing")
	}
}

func TestParseSelectNoFrom(t *testing.T) {
	stmt := mustParse(t, "SELECT UTC_MICROS()")
	sel := stmt.(*SelectStmt)
	if sel.From != nil || len(sel.Exprs) != 1 {
		t.Fatalf("parsed %+v", sel)
	}
}

func TestParseLeftJoin(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM a LEFT JOIN b ON a.x = b.y")
	sel := stmt.(*SelectStmt)
	if len(sel.Joins) != 1 || !sel.Joins[0].Left {
		t.Fatalf("join: %+v", sel.Joins)
	}
}

func TestParseLimitCommaForm(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t LIMIT 5, 10")
	sel := stmt.(*SelectStmt)
	if sel.Limit.String() != "10" || sel.Offset.String() != "5" {
		t.Fatalf("limit=%v offset=%v", sel.Limit, sel.Offset)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	sel := stmt.(*SelectStmt)
	or, ok := sel.Where.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", sel.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("AND should bind tighter: %v", sel.Where)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT 1 + 2 * 3")
	sel := stmt.(*SelectStmt)
	if got := sel.Exprs[0].Expr.String(); got != "(1 + (2 * 3))" {
		t.Fatalf("precedence tree: %s", got)
	}
}

func TestParseInBetweenLikeNull(t *testing.T) {
	for _, sql := range []string{
		"SELECT * FROM t WHERE a IN (1, 2, 3)",
		"SELECT * FROM t WHERE a NOT IN (1)",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 10",
		"SELECT * FROM t WHERE a NOT BETWEEN 1 AND 10",
		"SELECT * FROM t WHERE a LIKE '%x%'",
		"SELECT * FROM t WHERE a NOT LIKE 'x_'",
		"SELECT * FROM t WHERE a IS NULL",
		"SELECT * FROM t WHERE a IS NOT NULL",
	} {
		mustParse(t, sql)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, "UPDATE users SET name = 'x', age = age + 1 WHERE id = ?").(*UpdateStmt)
	if len(up.Sets) != 2 || up.Where == nil {
		t.Fatalf("update: %+v", up)
	}
	del := mustParse(t, "DELETE FROM users WHERE id = 7").(*DeleteStmt)
	if del.Where == nil {
		t.Fatalf("delete: %+v", del)
	}
}

func TestParseTxnAndUse(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*BeginStmt); !ok {
		t.Fatal("BEGIN")
	}
	if _, ok := mustParse(t, "COMMIT").(*CommitStmt); !ok {
		t.Fatal("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*RollbackStmt); !ok {
		t.Fatal("ROLLBACK")
	}
	use := mustParse(t, "USE cloudstone").(*UseStmt)
	if use.DB != "cloudstone" {
		t.Fatalf("USE: %+v", use)
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT 1;")
}

func TestParseComments(t *testing.T) {
	mustParse(t, "SELECT 1 -- trailing comment\n")
}

func TestParseQuotedIdent(t *testing.T) {
	stmt := mustParse(t, "SELECT `order` FROM `select_table`")
	sel := stmt.(*SelectStmt)
	if sel.From.Name != "select_table" {
		t.Fatalf("from: %+v", sel.From)
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		"",
		"SELEC 1",
		"SELECT FROM",
		"INSERT INTO t VALUES",
		"CREATE TABLE t (a BADTYPE)",
		"SELECT * FROM t WHERE",
		"SELECT 'unterminated",
		"UPDATE t SET",
		"SELECT 1 extra garbage ,",
		"DELETE t",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParamIndexing(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a = ? AND b = ? AND c = ?")
	var idx []int
	walkStmt(stmt, func(e Expr) {
		if p, ok := e.(*Param); ok {
			idx = append(idx, p.Index)
		}
	})
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 2 {
		t.Fatalf("param indexes: %v", idx)
	}
}

// TestRenderParseRoundTrip: parse → String → parse must yield identical
// rendered text (fixed corpus covering the full dialect).
func TestRenderParseRoundTrip(t *testing.T) {
	corpus := []string{
		"SELECT 1",
		"SELECT (1 + 2)",
		"SELECT * FROM t",
		"SELECT a, b AS x FROM t WHERE ((a = 1) AND (b != 'y')) ORDER BY a DESC LIMIT 10",
		"INSERT INTO db1.t (a, b) VALUES (1, 'x''y'), (2, NULL)",
		"UPDATE t SET a = (a + 1) WHERE (b IN (1, 2))",
		"DELETE FROM t WHERE (a BETWEEN 1 AND 2)",
		"CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(10) NOT NULL, INDEX idx_b(b))",
		"DROP TABLE IF EXISTS t",
		"TRUNCATE TABLE t",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING (COUNT(*) > 1)",
		"SELECT a FROM t LEFT JOIN u ON (t.x = u.y)",
		"SELECT DISTINCT a FROM t",
		"SELECT IF((a > 0), 'pos', 'neg') FROM t",
		"SELECT COUNT(DISTINCT a) FROM t",
	}
	for _, sql := range corpus {
		s1 := mustParse(t, sql)
		r1 := s1.String()
		s2 := mustParse(t, r1)
		r2 := s2.String()
		if r1 != r2 {
			t.Errorf("round trip diverged:\n  in:  %s\n  r1:  %s\n  r2:  %s", sql, r1, r2)
		}
	}
}

// Property: randomly generated expressions render to SQL that re-parses to
// the same rendering (fixed point after one normalization).
func TestExprRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		e := genExpr(rng, 3)
		sql := "SELECT " + e.String() + " FROM t"
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("generated SQL does not parse: %s: %v", sql, err)
		}
		if got := stmt.String(); got != sql {
			t.Fatalf("round trip diverged:\n  in:  %s\n  out: %s", sql, got)
		}
	}
}

// genExpr builds a random expression tree that renders deterministically.
func genExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 {
		switch rng.Intn(4) {
		case 0:
			return &Literal{NewInt(int64(rng.Intn(100)))}
		case 1:
			return &Literal{NewString(string(rune('a' + rng.Intn(26))))}
		case 2:
			return &ColRef{Name: "c" + string(rune('a'+rng.Intn(4)))}
		default:
			return &Literal{Null}
		}
	}
	switch rng.Intn(7) {
	case 0:
		ops := []string{"+", "-", "*", "/", "=", "!=", "<", "<=", ">", ">=", "AND", "OR"}
		return &Binary{ops[rng.Intn(len(ops))], genExpr(rng, depth-1), genExpr(rng, depth-1)}
	case 1:
		return &Unary{"NOT", genExpr(rng, depth-1)}
	case 2:
		return &FuncCall{Name: "COALESCE", Args: []Expr{genExpr(rng, depth-1), genExpr(rng, depth-1)}}
	case 3:
		return &InExpr{X: genExpr(rng, depth-1), List: []Expr{genExpr(rng, 0), genExpr(rng, 0)}, Not: rng.Intn(2) == 0}
	case 4:
		return &BetweenExpr{X: genExpr(rng, depth-1), Lo: genExpr(rng, 0), Hi: genExpr(rng, 0), Not: rng.Intn(2) == 0}
	case 5:
		return &IsNullExpr{X: genExpr(rng, depth-1), Not: rng.Intn(2) == 0}
	default:
		return &LikeExpr{X: genExpr(rng, depth-1), Pattern: &Literal{NewString("%x_")}, Not: rng.Intn(2) == 0}
	}
}

// Property: rendering a statement with args (the binlog text of a write)
// replaces every parameter, leaves no '?' placeholder, and re-parses to a
// fixed point.
func TestBindInterpolationProperty(t *testing.T) {
	eng := NewEngine()
	stmt, err := eng.Prepare("INSERT INTO t (x, y) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	f := func(a int64, s string) bool {
		if strings.ContainsAny(s, "'\\") || len(s) > 50 {
			return true
		}
		out, err := stmt.Render(NewInt(a), NewString(s))
		if err != nil {
			return false
		}
		if strings.Contains(out, "?") {
			return false
		}
		re, err := Parse(out)
		if err != nil {
			return false
		}
		return re.String() == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Binding args — rendering them or executing with them — requires exactly
// one argument per placeholder.
func TestBindArityErrors(t *testing.T) {
	eng := NewEngine()
	stmt, err := eng.Prepare("SELECT * FROM t WHERE a = ? AND b = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Render(NewInt(1)); err == nil {
		t.Fatal("missing arg accepted")
	}
	if _, err := stmt.Render(NewInt(1), NewInt(2), NewInt(3)); err == nil {
		t.Fatal("extra arg accepted")
	}
	if _, err := stmt.Render(NewInt(1), NewInt(2)); err != nil {
		t.Fatalf("exact args rejected: %v", err)
	}
	s := newTestDB(t)
	for _, args := range [][]Value{{NewInt(1)}, {NewInt(1), NewString("x"), NewInt(3)}} {
		_, err := s.Exec("UPDATE users SET name = ? WHERE id = ?", args...)
		want := fmt.Sprintf("statement has 2 parameters but %d arguments given", len(args))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("write with %d args: err %v, want %q", len(args), err, want)
		}
	}
}
