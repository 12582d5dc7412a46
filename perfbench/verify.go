package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// tableDigest summarizes one table: its row count and an order-independent
// hash of every row's non-time values.
type tableDigest struct {
	rows int
	sum  uint64
}

// digests returns a digest per "database.table" of eng. Time columns are
// left out: statement-based replication re-evaluates UTC_MICROS() on each
// replica against its own clock by design.
func digests(eng *sqlengine.Engine) map[string]tableDigest {
	out := make(map[string]tableDigest)
	for _, dbName := range eng.Databases() {
		db, _ := eng.Database(dbName)
		//cloudrepl:allow-maporder each table's digest lands under its own key; the order cannot show
		for name, t := range db.Tables() {
			d := tableDigest{rows: t.NumRows()}
			h := fnv.New64a()
			var buf []byte
			for _, r := range t.Rows() {
				buf = buf[:0]
				for i, v := range r.Values() {
					if t.Columns[i].Type != sqlengine.KindTime {
						buf = appendValue(append(buf, byte(i)), v)
					}
				}
				h.Reset()
				_, _ = h.Write(buf) // a hash.Hash write never fails
				d.sum += h.Sum64()
			}
			out[dbName+"."+name] = d
		}
	}
	return out
}

// appendValue encodes a value unambiguously, kind included.
func appendValue(b []byte, v sqlengine.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case sqlengine.KindString:
		b = binary.AppendUvarint(b, uint64(len(v.Str())))
		return append(b, v.Str()...)
	case sqlengine.KindFloat:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case sqlengine.KindNull:
		return b
	default:
		return binary.AppendVarint(b, v.Int())
	}
}

// diffDigests names the first table whose digest differs between want and
// got, or returns "" when they match.
func diffDigests(want, got map[string]tableDigest) string {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	//cloudrepl:allow-maporder the names are sorted before use
	for n := range got {
		if _, ok := want[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		w, okW := want[n]
		g, okG := got[n]
		if !okW || !okG || w != g {
			return fmt.Sprintf("%s: %d rows (digest %x) vs %d rows (digest %x)", n, w.rows, w.sum, g.rows, g.sum)
		}
	}
	return ""
}

// renderDigests is a stable text form of a digest set.
func renderDigests(d map[string]tableDigest) string {
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d/%x;", n, d[n].rows, d[n].sum)
	}
	return b.String()
}

// verifyReplicas checks, after the drain, that every replica applied its
// master's whole binlog without an apply error and holds the master's rows.
// It returns each master's binlog length and digests as text.
func (s *stack) verifyReplicas() (string, error) {
	var all strings.Builder
	for _, m := range s.masters {
		last := m.Srv.Log.LastSeq()
		fmt.Fprintf(&all, "%s@%d:", m.Srv.Name, last)
		want := digests(m.Srv.Eng)
		all.WriteString(renderDigests(want))
		for _, sl := range m.Slaves() {
			if sl.AppliedSeq() != last {
				return "", fmt.Errorf("%s applied seq %d, master %s is at %d", sl.Srv.Name, sl.AppliedSeq(), m.Srv.Name, last)
			}
			if n := sl.ApplyErrors(); n != 0 {
				return "", fmt.Errorf("%s had %d apply errors", sl.Srv.Name, n)
			}
			if d := diffDigests(want, digests(sl.Srv.Eng)); d != "" {
				return "", fmt.Errorf("%s diverged from %s: %s", sl.Srv.Name, m.Srv.Name, d)
			}
		}
	}
	return all.String(), nil
}

// replayMasters re-executes every master's binlog, preload included, on an
// empty engine through the replica apply entry point (Session.ExecUncached),
// timing it, and checks that the result converges to the master's rows.
//
//cloudrepl:allow-simtime the replay is timed on the host clock; it runs outside the simulation
func (s *stack) replayMasters() (nsPerStmt, allocsPerStmt float64, err error) {
	var stmts, allocs uint64
	var elapsed time.Duration
	for _, m := range s.masters {
		eng := sqlengine.NewEngine()
		sess := eng.NewSession("")
		last := m.Srv.Log.LastSeq()
		a0 := heapAllocs()
		t0 := time.Now()
		for seq := uint64(1); seq <= last; seq++ {
			e, err := m.Srv.Log.At(seq)
			if err != nil {
				return 0, 0, err
			}
			if e.Database != "" && sess.DB() != e.Database {
				if _, err := sess.ExecUncached("USE " + e.Database); err != nil {
					return 0, 0, fmt.Errorf("replay seq %d: %w", seq, err)
				}
			}
			if _, err := sess.ExecUncached(e.SQL); err != nil {
				return 0, 0, fmt.Errorf("replay seq %d (%q): %w", seq, e.SQL, err)
			}
		}
		elapsed += time.Since(t0)
		allocs += heapAllocs() - a0
		stmts += last
		if d := diffDigests(digests(m.Srv.Eng), digests(eng)); d != "" {
			return 0, 0, fmt.Errorf("replay of %s's binlog diverged: %s", m.Srv.Name, d)
		}
	}
	if stmts == 0 {
		return 0, 0, fmt.Errorf("empty binlog")
	}
	return float64(elapsed.Nanoseconds()) / float64(stmts), float64(allocs) / float64(stmts), nil
}

// Audit queries, in the shapes the Cloudstone driver sends.
const (
	homePageSQL   = "SELECT id, title, event_date FROM events ORDER BY created DESC LIMIT 10"
	friendListSQL = "SELECT friend_id FROM friends WHERE user_id = ?"
	auditQueries  = 60
)

// audit samples the event feed, the friend feed and the home page through
// the shard router once the load is over, and compares every answer with the
// same query on one reference engine that holds the union of all cells'
// master rows. Reads go to the cell masters (strong tier), so time columns
// match the reference exactly.
func (s *stack) audit(w workload) (queries, wrong int, err error) {
	ref, err := s.referenceEngine()
	if err != nil {
		return 0, 0, err
	}
	refSess := ref.NewSession(cloudstone.DatabaseName)
	refQuery := func(sql string, args ...sqlengine.Value) (*sqlengine.ResultSet, error) {
		st, err := ref.Prepare(sql)
		if err != nil {
			return nil, err
		}
		return st.Query(refSess, args...)
	}
	for _, cell := range s.db.Shards().Cells() {
		cell.Px.Consistency = proxy.Strong
	}

	rng := s.env.Rand() // the load is over; the sample only needs to be seeded
	s.env.Go("bench/audit", func(p *sim.Proc) {
		defer s.env.Stop()
		for i := 0; i < auditQueries && err == nil; i++ {
			id := sqlengine.NewInt(int64(rng.Intn(w.scale)) + 1)
			var sql string
			var args []sqlengine.Value
			switch i % 3 {
			case 0:
				sql, args = cloudstone.EventFeedSQL, []sqlengine.Value{id}
			case 1:
				var friends *sqlengine.ResultSet
				if friends, err = refQuery(friendListSQL, id); err != nil {
					return
				}
				if len(friends.Rows) == 0 {
					continue
				}
				ph := make([]string, len(friends.Rows))
				for j, r := range friends.Rows {
					ph[j] = "?"
					args = append(args, r[0])
				}
				sql = "SELECT id, title FROM events WHERE creator_id IN (" + strings.Join(ph, ", ") +
					") ORDER BY created DESC LIMIT 10"
			default:
				sql = homePageSQL
			}
			got, qerr := s.db.Query(p, sql, args...)
			if qerr != nil {
				err = fmt.Errorf("audit query %q through the router: %w", sql, qerr)
				return
			}
			want, qerr := refQuery(sql, args...)
			if qerr != nil {
				err = fmt.Errorf("audit query %q on the reference: %w", sql, qerr)
				return
			}
			queries++
			if !sameRows(want, got) {
				wrong++
			}
		}
	})
	s.env.RunUntil(s.env.Now() + time.Hour)
	return queries, wrong, err
}

// referenceEngine builds one engine holding cloudstone.DDL and copies of
// every cell master's rows; a global table is copied from the first cell.
func (s *stack) referenceEngine() (*sqlengine.Engine, error) {
	ref := sqlengine.NewEngine()
	sess := ref.NewSession("")
	for _, ddl := range cloudstone.DDL {
		if _, err := sess.ExecUncached(ddl); err != nil {
			return nil, fmt.Errorf("reference schema: %w", err)
		}
	}
	global := cloudstone.ShardKeyspace().Global
	for i, m := range s.masters {
		db, ok := m.Srv.Eng.Database(cloudstone.DatabaseName)
		if !ok {
			return nil, fmt.Errorf("%s has no %s database", m.Srv.Name, cloudstone.DatabaseName)
		}
		//cloudrepl:allow-maporder the reference holds the same rows whatever order the tables are copied in
		for name, t := range db.Tables() {
			if global[name] && i > 0 {
				continue
			}
			cols := make([]string, len(t.Columns))
			ph := make([]string, len(t.Columns))
			for j, c := range t.Columns {
				cols[j], ph[j] = c.Name, "?"
			}
			st, err := ref.Prepare("INSERT INTO " + cloudstone.DatabaseName + "." + name +
				" (" + strings.Join(cols, ", ") + ") VALUES (" + strings.Join(ph, ", ") + ")")
			if err != nil {
				return nil, err
			}
			for _, r := range t.Rows() {
				if _, err := st.Run(sess, r.Values()...); err != nil {
					return nil, fmt.Errorf("reference copy of %s: %w", name, err)
				}
			}
		}
	}
	return ref, nil
}

// sameRows reports whether two result sets hold the same rows in the same
// order.
func sameRows(a, b *sqlengine.ResultSet) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if !bytes.Equal(appendValue(nil, a.Rows[i][j]), appendValue(nil, b.Rows[i][j])) {
				return false
			}
		}
	}
	return true
}
