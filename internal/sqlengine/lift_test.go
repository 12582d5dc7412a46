package sqlengine

import (
	"reflect"
	"strings"
	"testing"
)

// replicatedInsert is a Cloudstone create-event write as the master's
// binlog carries it.
const replicatedInsert = "INSERT INTO events (id, creator_id, title, description, event_date, created) " +
	"VALUES (3001, 17, 'Event 3001 meetup', 'created during the benchmark run', UTC_MICROS(), UTC_MICROS())"

// Every replica lexes every shipped write, so the lexer must not allocate
// per token: keywords are interned and identifiers, numbers, symbols and
// escape-free strings are substrings of the text. Lexing allocates only
// the token slice, and lifting only the argument vector.
func TestLexAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := lex(replicatedInsert); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("lex: %v allocations, want 1 (the token slice)", n)
	}
	var buf [512]byte
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := lift(replicatedInsert, buf[:0]); !ok {
			t.Fatal("lift declined")
		}
	}); n != 1 {
		t.Errorf("lift: %v allocations, want 1 (the argument vector)", n)
	}
}

func TestLiftEdgeCases(t *testing.T) {
	n, f, s := NewInt, NewFloat, NewString
	cases := []struct {
		sql, tmpl string
		args      []Value
		canon     bool
	}{
		{"UPDATE t SET a = -5, b = -2.5 WHERE c = 3",
			"UPDATE t SET a = ?, b = ? WHERE c = ?", []Value{n(-5), f(-2.5), n(3)}, true},
		{"UPDATE t SET a = (a - 5) WHERE (b = (c - -5))",
			"UPDATE t SET a = (a - ?) WHERE (b = (c - ?))", []Value{n(5), n(-5)}, true},
		{"UPDATE t SET a = (a * -1.5e+06) WHERE (b > -0.25)",
			"UPDATE t SET a = (a * ?) WHERE (b > ?)", []Value{f(-1.5e6), f(-0.25)}, true},
		{"INSERT INTO t (a) VALUES ('it''s')", "INSERT INTO t (a) VALUES (?)", []Value{s("it's")}, true},
		{`INSERT INTO t (a) VALUES ('a\\b')`, "INSERT INTO t (a) VALUES (?)", []Value{s(`a\b`)}, true},
		{`INSERT INTO t (a) VALUES ('it\'s\n')`, "INSERT INTO t (a) VALUES (?)", []Value{s("it's\n")}, false},
		{"INSERT INTO t (a, b) VALUES ('what?', '')", "INSERT INTO t (a, b) VALUES (?, ?)", []Value{s("what?"), s("")}, true},
		{"UPDATE t SET a = NULL, b = TRUE WHERE (c = FALSE)", "UPDATE t SET a = NULL, b = TRUE WHERE (c = FALSE)", []Value{}, true},
		{"DELETE FROM t WHERE (id IN (1, -2, 3))", "DELETE FROM t WHERE (id IN (?, ?, ?))", []Value{n(1), n(-2), n(3)}, true},
		{"INSERT INTO hb (id, ts) VALUES (7, UTC_MICROS())", "INSERT INTO hb (id, ts) VALUES (?, UTC_MICROS())", []Value{n(7)}, true},
		{"UPDATE t SET a = (t.count - 1)", "UPDATE t SET a = (t.count - ?)", []Value{n(1)}, true},
		{"UPDATE t SET a = (NULL - 1)", "UPDATE t SET a = (NULL - ?)", []Value{n(1)}, true},
		{"UPDATE t SET a = (-(b))", "UPDATE t SET a = (-(b))", []Value{}, true},
		// Spellings Value.SQL would not produce.
		{"UPDATE t SET a = - 5", "UPDATE t SET a = ?", []Value{n(-5)}, false},
		{"UPDATE t SET a = -0", "UPDATE t SET a = ?", []Value{n(0)}, false},
		{"UPDATE t SET a = 007, b = 1.50", "UPDATE t SET a = ?, b = ?", []Value{n(7), f(1.5)}, false},
		{"EXPLAIN SELECT a FROM t LIMIT 10", "EXPLAIN SELECT a FROM t LIMIT ?", []Value{n(10)}, true},
	}
	for _, c := range cases {
		var buf [64]byte
		tmpl, l, ok := lift(c.sql, buf[:0])
		if !ok {
			t.Errorf("%s: declined", c.sql)
			continue
		}
		if string(tmpl) != c.tmpl || !reflect.DeepEqual(l.args, c.args) || l.canon != c.canon {
			t.Errorf("%s:\n got %q %v canon=%v\nwant %q %v canon=%v", c.sql, tmpl, l.args, l.canon, c.tmpl, c.args, c.canon)
		}
		checkLift(t, c.sql)
	}

	for _, sql := range []string{
		"UPDATE t SET a = (-(5))",                     // the fold reaches into parentheses
		"UPDATE t SET a = - -5",                       // a double sign folds twice
		"UPDATE t SET a = ? WHERE b = 1",              // already parameterized
		"CREATE TABLE t (a VARCHAR(32))",              // a DDL integer is no expression
		"EXPLAIN CREATE TABLE t (a VARCHAR(32))",      // nor under EXPLAIN
		"INSERT INTO t VALUES (99999999999999999999)", // the parser rejects it
		"USE app",
		"INSERT INTO t VALUES ('open",
	} {
		var buf [64]byte
		if tmpl, _, ok := lift(sql, buf[:0]); ok {
			t.Errorf("%s: lifted to %q, want declined", sql, tmpl)
		}
	}
}

// checkLift asserts lift's contract on one text: when the text parses and
// lift accepts it, the template parses to a statement with one placeholder
// per argument, and rendering it with the arguments reproduces the text's
// canonical rendering — byte for byte the text itself when lift reports it
// canonical and the template is the normalized form.
func checkLift(t *testing.T, sql string) {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		return
	}
	var buf [64]byte
	text, l, ok := lift(sql, buf[:0])
	if !ok {
		return
	}
	tmpl, err := Parse(string(text))
	if err != nil {
		t.Fatalf("template does not parse:\n  in:   %q\n  tmpl: %q\n  err:  %v", sql, text, err)
	}
	if n := countParams(tmpl); n != len(l.args) {
		t.Fatalf("template has %d placeholders for %d arguments:\n  in:   %q\n  tmpl: %q", n, len(l.args), sql, text)
	}
	want := st.String()
	if got := renderSQL(tmpl, l.args, 0); got != want {
		t.Fatalf("lifted rendering differs:\n  in:   %q\n  tmpl: %q %v\n  got:  %q\n  want: %q", sql, text, l.args, got, want)
	}
	if l.canon && tmpl.String() == string(text) && sql != want {
		t.Fatalf("text logged as it came is not canonical:\n  in:   %q\n  want: %q", sql, want)
	}
}

// FuzzLift checks lift's contract (checkLift) on arbitrary text, seeded
// with FuzzParse's corpus plus replicated write shapes.
func FuzzLift(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		replicatedInsert,
		"UPDATE events SET description = 'updated during the benchmark run' WHERE (id = 42)",
		"DELETE FROM t WHERE ((a > -1.5) AND (b IN ('x', 'y''z')))",
		"UPDATE t SET a = (-(b)), c = (c - -3) WHERE (d BETWEEN -2 AND 7)",
		"INSERT INTO t (a, b) VALUES (1, NULL), (-2, 'q?')",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) { checkLift(t, sql) })
}

// ExecUncached logs a replicated write as it came when it is canonical, and
// otherwise as the canonical rendering the pre-lift replica path produced
// by re-parsing.
func TestExecUncachedLogsCanonicalText(t *testing.T) {
	s := newTestDB(t)
	var logged []string
	s.eng.OnCommit = func(_ string, sqls []string) { logged = append(logged, sqls...) }
	for _, sql := range []string{
		"UPDATE users SET name = 'x' WHERE (id = 3)",
		"update users set name = 'y' where id = 4",
		"UPDATE users SET name = 'it\\'s' WHERE (id = 5);",
		"UPDATE users SET karma = - 5 WHERE (id = 007)",
		"UPDATE users SET karma = 1.50 WHERE (id = 6) -- trailing comment",
		"INSERT INTO users (id, name, karma) VALUES (11, 'new', -(3))",
	} {
		logged = nil
		if _, err := s.ExecUncached(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if want := mustParse(t, sql).String(); len(logged) != 1 || logged[0] != want {
			t.Errorf("%s: logged %q, want %q", sql, logged, want)
		}
	}
}

// A replicated write runs its lifted template on the replica, so it must
// choose the access path and examine the rows the literal form does: the
// write planner's range estimate reads a ? through the execution's args.
func TestRangeWriteParity(t *testing.T) {
	for _, naive := range []bool{false, true} {
		for _, c := range []struct {
			literal, param string
			args           []Value
		}{
			{"UPDATE events SET title = 'x' WHERE score > 7", "UPDATE events SET title = ? WHERE score > ?", []Value{NewString("x"), NewInt(7)}},
			{"UPDATE events SET title = 'x' WHERE creator_id = 4 AND score <= 2.5", "UPDATE events SET title = ? WHERE creator_id = ? AND score <= ?",
				[]Value{NewString("x"), NewInt(4), NewFloat(2.5)}},
			{"DELETE FROM users WHERE karma >= 80 AND id = 8", "DELETE FROM users WHERE karma >= ? AND id = ?", []Value{NewInt(80), NewInt(8)}},
		} {
			lit, par := newTestDB(t), newTestDB(t)
			lit.eng.NaivePlan, par.eng.NaivePlan = naive, naive
			// Range estimates come from analyzed min/max, which writes
			// never refresh themselves.
			analyzeAll(lit)
			analyzeAll(par)

			// The plans match node for node, estimates included.
			lp := writePlan(t, lit, mustParse(t, c.literal), nil)
			pp := writePlan(t, par, mustParse(t, c.param), c.args)
			if len(lp.nodes) != len(pp.nodes) {
				t.Fatalf("naive=%v %s: %d plan nodes, parameterized %d", naive, c.literal, len(lp.nodes), len(pp.nodes))
			}
			for i, ln := range lp.nodes {
				pn := pp.nodes[i]
				if ln.kind != pn.kind || ln.idxName != pn.idxName || ln.estRows != pn.estRows || ln.estCost != pn.estCost {
					t.Errorf("naive=%v %s: node %d literal %v %s est=%v cost=%v, parameterized %v %s est=%v cost=%v",
						naive, c.literal, i, ln.kind, ln.idxName, ln.estRows, ln.estCost, pn.kind, pn.idxName, pn.estRows, pn.estCost)
				}
			}

			lr, err := lit.Exec(c.literal)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := par.Exec(c.param, c.args...)
			if err != nil {
				t.Fatal(err)
			}
			if lr.Stats != pr.Stats || lr.SQL != pr.SQL {
				t.Errorf("naive=%v: literal %+v %q, parameterized %+v %q", naive, lr.Stats, lr.SQL, pr.Stats, pr.SQL)
			}
		}
	}
}

// analyzeAll profiles every table of the session's database.
func analyzeAll(s *Session) {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	for _, tbl := range s.eng.dbs[s.db].tables {
		s.eng.analyzeLocked(tbl)
	}
}

// writePlan builds the write plan of an UPDATE or DELETE for args.
func writePlan(t *testing.T, s *Session, st Stmt, args []Value) *Plan {
	t.Helper()
	var ref TableRef
	var where Expr
	switch w := st.(type) {
	case *UpdateStmt:
		ref, where = w.Table, w.Where
	case *DeleteStmt:
		ref, where = w.Table, w.Where
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	p, err := s.eng.planWriteLocked(s, ref, where, args)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The parameterized and literal forms render the same binlog text.
func TestRenderMatchesLiteralText(t *testing.T) {
	st, err := NewEngine().Prepare("UPDATE t SET a = ?, b = ? WHERE (c IN (?, ?)) AND d LIKE ?")
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Render(NewString(`it's \ done`), NewFloat(-0.5), NewInt(-7), Null, NewString("a%"))
	if err != nil {
		t.Fatal(err)
	}
	want := mustParse(t, `UPDATE t SET a = 'it''s \\ done', b = -0.5 WHERE (c IN (-7, NULL)) AND d LIKE 'a%'`).String()
	if got != want || strings.Contains(got, "?") {
		t.Fatalf("rendered %q, want %q", got, want)
	}
}
