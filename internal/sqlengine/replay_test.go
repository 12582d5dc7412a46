package sqlengine_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/sqlengine"
)

// The replay differential: engine A runs writes the way a master does
// (prepared templates run with args), engine B applies A's statement binlog
// the way a replica does (Session.ExecUncached on each shipped text). B must
// log byte-identical texts, do identical work per statement and end with
// identical rows — except that UTC_MICROS() re-evaluates on B's own clock.

const (
	clockA int64 = 1_000
	clockB int64 = 2_000_000
)

type logEntry struct{ db, sql string }

// unrecorded stands in for the stats of a statement the master ran outside
// master.run.
var unrecorded = sqlengine.ExecStats{Class: 255}

// writeShape is one parameterized write with its argument generator.
type writeShape struct {
	db, sql string
	args    func(i int) []sqlengine.Value
}

// replayShapes are the Cloudstone driver's write shapes (Driver.writeOp)
// and the heartbeat plugin's insert, with the driver's argument kinds.
func replayShapes() []writeShape {
	n := sqlengine.NewInt
	s := sqlengine.NewString
	cs, hb := cloudstone.DatabaseName, heartbeat.DatabaseName
	return []writeShape{
		{cs, "INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, UTC_MICROS(), UTC_MICROS())",
			func(i int) []sqlengine.Value {
				// Every fourth title carries characters the binlog must escape.
				title := fmt.Sprintf("Event %d meetup", i)
				if i%4 == 0 {
					title = fmt.Sprintf(`it's event %d \ of "many"?`, i)
				}
				return []sqlengine.Value{n(int64(i)), n(int64(i%7 + 1)), s(title), s("created during the benchmark run")}
			}},
		{cs, "INSERT INTO attendance (id, event_id, user_id, created) VALUES (?, ?, ?, UTC_MICROS())",
			func(i int) []sqlengine.Value {
				return []sqlengine.Value{n(int64(i)), n(int64(i%5 + 1)), n(int64(i%9 + 1))}
			}},
		{cs, "INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)",
			func(i int) []sqlengine.Value {
				return []sqlengine.Value{n(int64(i)), n(int64(i%5 + 1)), n(int64(i%20 + 1))}
			}},
		{cs, "INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, UTC_MICROS())",
			func(i int) []sqlengine.Value {
				return []sqlengine.Value{n(int64(i)), n(int64(i%5 + 1)), n(int64(i%9 + 1)), s("sounds great, count me in")}
			}},
		{cs, "UPDATE events SET description = ? WHERE id = ?",
			func(i int) []sqlengine.Value {
				return []sqlengine.Value{s("updated during the benchmark run"), n(int64(i%11 + 1))}
			}},
		{hb, "INSERT INTO heartbeat (id, ts) VALUES (?, UTC_MICROS())",
			func(i int) []sqlengine.Value { return []sqlengine.Value{n(int64(i))} }},
	}
}

// master is engine A: it records its binlog and the stats of every
// statement that reached it.
type master struct {
	eng   *sqlengine.Engine
	log   []logEntry
	stats []sqlengine.ExecStats
}

func newMaster(t *testing.T, naive bool) *master {
	m := &master{eng: sqlengine.NewEngine()}
	m.eng.NaivePlan = naive
	m.eng.NowMicros = func() int64 { return clockA }
	m.eng.OnCommit = func(db string, sqls []string) {
		for _, q := range sqls {
			m.log = append(m.log, logEntry{db, q})
		}
	}
	return m
}

// run executes one statement through Prepare/Run on sess. pending buffers
// the stats of writes inside a transaction until COMMIT.
func (m *master) run(t *testing.T, sess *sqlengine.Session, pending *[]sqlengine.ExecStats, sql string, args ...sqlengine.Value) {
	t.Helper()
	st, err := m.eng.Prepare(sql)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	res, err := st.Run(sess, args...)
	if err != nil {
		return // an erroring statement logs nothing
	}
	switch {
	case sql == "COMMIT":
		m.stats = append(m.stats, *pending...)
		*pending = nil
	case sql == "ROLLBACK":
		*pending = nil
	case res.Stats.Class == sqlengine.ClassDDL || res.Stats.Class == sqlengine.ClassWrite:
		if sess.InTxn() && res.Stats.Class == sqlengine.ClassWrite {
			*pending = append(*pending, res.Stats)
		} else {
			m.stats = append(m.stats, res.Stats)
		}
	}
}

// buildMaster runs the whole write workload on engine A.
func buildMaster(t *testing.T, naive bool) *master {
	m := newMaster(t, naive)
	var pending []sqlengine.ExecStats
	ddl := m.eng.NewSession("")
	for _, q := range cloudstone.DDL {
		m.run(t, ddl, &pending, q)
	}
	m.run(t, ddl, &pending, "CREATE DATABASE IF NOT EXISTS "+heartbeat.DatabaseName)
	m.run(t, ddl, &pending, "CREATE TABLE IF NOT EXISTS "+heartbeat.DatabaseName+".heartbeat (id BIGINT PRIMARY KEY, ts TIMESTAMP(6) NOT NULL)")

	sessions := map[string]*sqlengine.Session{}
	for i := 1; i <= 30; i++ {
		for _, sh := range replayShapes() {
			if sessions[sh.db] == nil {
				sessions[sh.db] = m.eng.NewSession(sh.db)
			}
			m.run(t, sessions[sh.db], &pending, sh.sql, sh.args(i)...)
		}
	}

	// The planner write-differential scripts, on newTestDB's schema. Its
	// database is created outside the statement path, so a replica creates
	// it the same way.
	app := sqlengine.LoadTestDB(t, m.eng)
	for len(m.stats) < len(m.log) {
		m.stats = append(m.stats, unrecorded) // the loader's own statements
	}
	for _, q := range sqlengine.WriteDifferentialStmts() {
		m.run(t, app, &pending, q)
	}
	return m
}

// replica is engine B: it applies a binlog through ExecUncached.
func replay(t *testing.T, log []logEntry, naive bool) (*sqlengine.Engine, []logEntry, []sqlengine.ExecStats) {
	t.Helper()
	eng := sqlengine.NewEngine()
	eng.NaivePlan = naive
	eng.NowMicros = func() int64 { return clockB }
	var out []logEntry
	eng.OnCommit = func(db string, sqls []string) {
		for _, q := range sqls {
			out = append(out, logEntry{db, q})
		}
	}
	if err := eng.CreateDatabase("app", false); err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession("")
	var stats []sqlengine.ExecStats
	for i, e := range log {
		if e.db != "" && sess.DB() != e.db {
			if err := sess.Use(e.db); err != nil {
				t.Fatalf("entry %d: USE %s: %v", i, e.db, err)
			}
		}
		res, err := sess.ExecUncached(e.sql)
		if err != nil {
			t.Fatalf("entry %d %q: %v", i, e.sql, err)
		}
		stats = append(stats, res.Stats)
	}
	return eng, out, stats
}

// digest renders every row of every table, in primary-key order, leaving
// out TIMESTAMP columns (UTC_MICROS() differs between the two clocks).
func digest(t *testing.T, eng *sqlengine.Engine) []string {
	t.Helper()
	dbs := eng.Databases()
	sort.Strings(dbs)
	var out []string
	for _, name := range dbs {
		db, _ := eng.Database(name)
		var tables []string
		for tn := range db.Tables() {
			tables = append(tables, tn)
		}
		sort.Strings(tables)
		for _, tn := range tables {
			tbl := db.Tables()[tn]
			var rows []string
			for _, r := range tbl.Rows() {
				var b strings.Builder
				for i, v := range r.Values() {
					if tbl.Columns[i].Type != sqlengine.KindTime {
						b.WriteString(v.SQL() + "|")
					}
				}
				rows = append(rows, b.String())
			}
			sort.Strings(rows)
			out = append(out, name+"."+tn+fmt.Sprintf(" %d rows", len(rows)))
			out = append(out, rows...)
		}
	}
	return out
}

// timesOf returns the distinct values of a TIMESTAMP column.
func timesOf(t *testing.T, eng *sqlengine.Engine, db, q string) map[int64]bool {
	t.Helper()
	set, err := eng.NewSession(db).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]bool{}
	for _, r := range set.Rows {
		out[r[0].Int()] = true
	}
	return out
}

func TestReplayDifferential(t *testing.T) {
	for _, naive := range []bool{false, true} {
		t.Run(fmt.Sprintf("naive=%v", naive), func(t *testing.T) {
			a := buildMaster(t, naive)
			if len(a.log) != len(a.stats) {
				t.Fatalf("master logged %d entries for %d statements", len(a.log), len(a.stats))
			}
			b, blog, bstats := replay(t, a.log, naive)

			if len(blog) != len(a.log) {
				t.Fatalf("replica logged %d entries, master %d", len(blog), len(a.log))
			}
			for i := range a.log {
				if blog[i] != a.log[i] {
					t.Fatalf("binlog entry %d differs:\nmaster  %q\nreplica %q", i, a.log[i].sql, blog[i].sql)
				}
				if a.stats[i] != unrecorded && bstats[i] != a.stats[i] {
					t.Fatalf("entry %d %q: replica stats %+v, master %+v", i, a.log[i].sql, bstats[i], a.stats[i])
				}
			}
			da, db := digest(t, a.eng), digest(t, b)
			if strings.Join(da, "\n") != strings.Join(db, "\n") {
				t.Fatalf("table digests differ:\nmaster:\n%s\nreplica:\n%s", strings.Join(da, "\n"), strings.Join(db, "\n"))
			}

			// UTC_MICROS() stays in the template: each engine evaluated it
			// on its own clock.
			for _, c := range []struct {
				eng   *sqlengine.Engine
				clock int64
			}{{a.eng, clockA}, {b, clockB}} {
				for _, q := range []struct{ db, sql string }{
					{heartbeat.DatabaseName, "SELECT ts FROM heartbeat"},
					{cloudstone.DatabaseName, "SELECT created FROM attendance"},
					{cloudstone.DatabaseName, "SELECT event_date FROM events"},
				} {
					if got := timesOf(t, c.eng, q.db, q.sql); len(got) != 1 || !got[c.clock] {
						t.Errorf("%s: times %v, want only %d", q.sql, got, c.clock)
					}
				}
			}

			// One parse-cache entry per statement shape, not per text.
			writes := 0
			for _, e := range a.log {
				if !strings.HasPrefix(e.sql, "CREATE") {
					writes++
				}
			}
			shapes := len(replayShapes()) + len(sqlengine.WriteDifferentialStmts())
			if n := b.ParseCacheLen(); n > shapes || writes < 5*shapes {
				t.Errorf("replica parse cache holds %d entries for %d writes of at most %d shapes", n, writes, shapes)
			}
		})
	}
}
