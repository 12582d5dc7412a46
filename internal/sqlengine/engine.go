// Package sqlengine is an embeddable in-memory relational engine with a
// MySQL-flavored SQL dialect: typed tables with primary keys and secondary
// indexes, INSERT/UPDATE/DELETE/SELECT (joins, aggregates, ORDER BY/LIMIT),
// MVCC row versioning with snapshot-isolated transactions (mvcc.go),
// positional parameters, and a statement-commit hook that feeds
// statement-based replication.
//
// The engine stands in for MySQL 5.x in the paper's experiments. Two
// properties matter for fidelity: per-statement execution statistics (rows
// examined/affected) drive the virtual CPU cost model, and time builtins
// (UTC_MICROS, NOW) are evaluated against the *local* instance clock at
// execution time, so a replicated heartbeat INSERT commits the slave's own
// timestamp when the slave's SQL thread re-executes it — the paper's delay
// measurement methodology.
package sqlengine

import (
	"fmt"
	"strings"
	"sync"
)

// StmtClass classifies a statement for cost accounting and routing.
type StmtClass uint8

// Statement classes.
const (
	ClassRead  StmtClass = iota // SELECT
	ClassWrite                  // INSERT, UPDATE, DELETE
	ClassDDL                    // CREATE, DROP, TRUNCATE
	ClassTxn                    // BEGIN, COMMIT, ROLLBACK, USE
)

func (c StmtClass) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassDDL:
		return "ddl"
	default:
		return "txn"
	}
}

// ExecStats describes the work one statement performed; the server layer
// converts it to virtual CPU time.
type ExecStats struct {
	RowsExamined int
	RowsReturned int
	RowsAffected int
	UsedIndex    bool
	Class        StmtClass
}

// ResultSet is the rows returned by a SELECT.
type ResultSet struct {
	Columns []string
	Rows    [][]Value
}

// Result is the outcome of executing one statement.
type Result struct {
	Set   *ResultSet // nil for non-SELECT
	Stats ExecStats
	// SQL is the fully-bound statement text (parameters interpolated) —
	// what a statement-format binlog records for write statements. Reads
	// leave it empty: nothing replicates a SELECT, and rendering one per
	// query was a measurable share of hot-path allocation.
	SQL string
	// RowSQL carries the row-image statements (one per affected row) that
	// a row-format binlog records instead of SQL.
	RowSQL []string
}

// CommitHook observes committed write statements in commit order. database
// is the session's current database; sqls are replayable statement texts.
// The slice is valid only during the call: a hook copies the texts it keeps.
type CommitHook func(database string, sqls []string)

// BinlogFormat selects how committed writes are rendered for replication.
type BinlogFormat uint8

const (
	// FormatStatement logs the original statement text; non-deterministic
	// builtins (UTC_MICROS) re-evaluate on each replica — MySQL SBR and
	// the mode the paper's heartbeat methodology depends on.
	FormatStatement BinlogFormat = iota
	// FormatRow logs deterministic per-row images (literal values fixed at
	// the master) — MySQL RBR. Replicas apply exactly the master's values,
	// so the heartbeat trick stops working (the negative control).
	FormatRow
)

// Engine is a single server's database engine: a set of databases, a parse
// cache, a local-time source for time builtins and a commit hook feeding
// the binlog.
type Engine struct {
	mu  sync.RWMutex
	dbs map[string]*Database

	// NowMicros supplies local time in microseconds for UTC_MICROS()/NOW().
	// The database server binds it to its instance's drifting clock.
	NowMicros func() int64
	// Format selects statement- or row-based rendering for the commit hook.
	Format BinlogFormat
	// OnCommit, when non-nil, receives every committed write statement.
	OnCommit CommitHook

	// MVCC state (mvcc.go): commitV is the engine's commit counter — every
	// finalized write statement or transaction takes the next version, and
	// replicas additionally advance it to the applied binlog sequence. pins
	// holds versions kept alive by open SnapshotHandles, txns the sessions
	// with open transactions, provisional the outstanding in-transaction
	// stamps (the fast-path read check), sinceGC the commits since the last
	// chain-GC sweep.
	commitV     uint64
	pins        []uint64
	txns        []*Session
	provisional int
	sinceGC     int

	gcRuns     uint64
	gcVersions uint64
	gcRows     uint64

	// parseCache maps a statement text — a prepared text or a replicated
	// write's lifted template — to its parse.
	parseMu    sync.RWMutex
	parseCache map[string]parseEntry

	// Planner state (planner.go, prepare.go). statsEpoch advances on
	// ANALYZE, DDL and snapshot Restore; a cached *Plan embeds table and
	// index pointers plus cost estimates, so any epoch mismatch retires it.
	// planCache is keyed on db + normalized SQL + planner mode and, like the
	// catalog it points into, is only touched under mu.
	statsEpoch uint64
	planCache  map[string]*Plan

	// NaivePlan forces the syntax-order, no-pushdown planner for every
	// statement — the A-PLAN ablation's baseline arm, mirroring the
	// pre-planner executor's access-path choices exactly.
	NaivePlan bool
}

// parseEntry is a parse-cache value: the immutable AST plus its canonical
// String rendering (which keys the plan cache across textual variants) and
// parameter count, both computed once per distinct text.
type parseEntry struct {
	stmt    Stmt
	norm    string
	nparams int
}

// Database is a named collection of tables.
type Database struct {
	Name   string
	tables map[string]*Table
}

// Tables returns the table map (keyed by lower-case name).
func (d *Database) Tables() map[string]*Table { return d.tables }

// Table looks up a table by case-insensitive name.
func (d *Database) Table(name string) (*Table, bool) {
	t, ok := d.tables[strings.ToLower(name)]
	return t, ok
}

// NewEngine creates an empty engine. Time builtins read zero until
// NowMicros is set.
func NewEngine() *Engine {
	return &Engine{
		dbs:        make(map[string]*Database),
		NowMicros:  func() int64 { return 0 },
		parseCache: make(map[string]parseEntry),
		planCache:  make(map[string]*Plan),
	}
}

// CreateDatabase creates a database, erroring if it exists (unless ifNotExists).
func (e *Engine) CreateDatabase(name string, ifNotExists bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.createDatabaseLocked(name, ifNotExists)
}

// Database returns a database by case-insensitive name.
func (e *Engine) Database(name string) (*Database, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, ok := e.dbs[strings.ToLower(name)]
	return d, ok
}

// Databases lists database names.
func (e *Engine) Databases() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for _, d := range e.dbs {
		out = append(out, d.Name)
	}
	return out
}

// parseEntry returns the cached AST plus its normalized rendering, parsing
// and rendering on first use.
func (e *Engine) parseEntry(sql string) (parseEntry, error) {
	e.parseMu.RLock()
	ent, ok := e.parseCache[sql]
	e.parseMu.RUnlock()
	if ok {
		return ent, nil
	}
	stmt, err := Parse(sql)
	if err != nil {
		return parseEntry{}, err
	}
	ent = parseEntry{stmt: stmt, norm: stmt.String(), nparams: countParams(stmt)}
	e.parseMu.Lock()
	e.parseCache[sql] = ent
	e.parseMu.Unlock()
	return ent, nil
}

// templateEntry is parseEntry for a lifted template (lift.go): a hit looks
// the bytes up without copying them into a string.
func (e *Engine) templateEntry(tmpl []byte) (parseEntry, error) {
	e.parseMu.RLock()
	ent, ok := e.parseCache[string(tmpl)]
	e.parseMu.RUnlock()
	if ok {
		return ent, nil
	}
	return e.parseEntry(string(tmpl))
}

// ParseCacheLen returns the number of statement texts in the parse cache.
func (e *Engine) ParseCacheLen() int {
	e.parseMu.RLock()
	defer e.parseMu.RUnlock()
	return len(e.parseCache)
}

// Session is a connection-scoped execution context: current database,
// transaction state and undo log.
type Session struct {
	eng *Engine
	db  string

	inTxn   bool
	readV   uint64   // snapshot read version while inTxn (set at BEGIN)
	pending []string // bound SQL texts awaiting commit, in order
	undo    []func() // undo actions, applied in reverse on rollback
	// stamps finalize provisional MVCC version marks with the commit
	// version assigned at commit time (mvcc.go).
	stamps []func(cv uint64)
	// provisional counts this session's outstanding in-transaction stamps,
	// mirrored into Engine.provisional for the fast-path read check.
	provisional int
	// oneSQL backs the one-statement slice an autocommit write hands the
	// commit hook.
	oneSQL [1]string
}

// NewSession opens a session with the given current database (may be "").
func (e *Engine) NewSession(db string) *Session {
	return &Session{eng: e, db: db}
}

// DB returns the session's current database name.
func (s *Session) DB() string { return s.db }

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.inTxn }

// Exec parses (with caching) and executes one statement with args.
//
// Deprecated: Exec remains as a compatibility shim over the prepared
// statement API and behaves identically. New code should use Engine.Prepare
// once and Statement.Run per call, which makes the parse/plan reuse explicit
// and exposes the plan via Statement.Plan.
func (s *Session) Exec(sql string, args ...Value) (*Result, error) {
	stmt, err := s.eng.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.Run(s, args...)
}

// ExecUncached executes one replicated statement text: it is the replica
// apply entry point. An INSERT, UPDATE or DELETE is lifted (lift.go): its
// literals become an argument vector and the AST of its ? template comes
// from the parse cache, so the cache holds one entry per statement shape,
// however many distinct literal texts a run replicates. The template runs
// with the lifted arguments, as the master ran its own template. The
// incoming text becomes the statement's binlog entry as it came when it is
// in canonical form; otherwise the template renders it with the arguments.
// Any other text — DDL, USE, or a write the lift leaves alone — takes a
// plain parse that bypasses the cache, as does a text passed with args.
func (s *Session) ExecUncached(sql string, args ...Value) (*Result, error) {
	if len(args) == 0 {
		var buf [512]byte
		if tmpl, l, ok := lift(sql, buf[:0]); ok && isWriteVerb(l.verb) {
			if ent, err := s.eng.templateEntry(tmpl); err == nil {
				text := ""
				if l.canon && ent.norm == string(tmpl) {
					text = sql
				}
				return s.exec(ent, l.args, text)
			}
		}
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt, args...)
}

func isWriteVerb(verb string) bool {
	return verb == "INSERT" || verb == "UPDATE" || verb == "DELETE"
}

// ExecStmt executes a pre-parsed statement with args for its ? placeholders.
//
// Nothing is bound: reads plan the parameterized AST, so one cached plan
// serves every argument vector, and writes plan per execution against the
// arguments. Either way the executor resolves each ? through the scope's
// args, and a write's binlog text is rendered once from the statement and
// its arguments.
func (s *Session) ExecStmt(stmt Stmt, args ...Value) (*Result, error) {
	return s.exec(parseEntry{stmt: stmt, nparams: countParams(stmt)}, args, "")
}

// exec runs one statement: ent is its AST with parameter count (and
// normalized text, when known), args the values of its placeholders, and
// text, when non-empty, the binlog text a write logs in place of rendering
// the statement with its arguments.
func (s *Session) exec(ent parseEntry, args []Value, text string) (*Result, error) {
	switch ent.stmt.(type) {
	case *SelectStmt, *ExplainStmt:
		// Reads check their arguments against the plan (Plan.checkArgs).
	default:
		if err := checkArgCount(ent.nparams, args); err != nil {
			return nil, err
		}
	}
	switch st := ent.stmt.(type) {
	case *BeginStmt:
		if s.inTxn {
			return nil, fmt.Errorf("sqlengine: nested BEGIN")
		}
		// Snapshot isolation: every read inside the transaction resolves
		// against the commit version current at BEGIN.
		s.eng.mu.Lock()
		s.inTxn = true
		s.readV = s.eng.commitV
		s.eng.txns = append(s.eng.txns, s)
		s.eng.mu.Unlock()
		return &Result{Stats: ExecStats{Class: ClassTxn}, SQL: "BEGIN"}, nil
	case *CommitStmt:
		s.commit()
		return &Result{Stats: ExecStats{Class: ClassTxn}, SQL: "COMMIT"}, nil
	case *RollbackStmt:
		s.rollback()
		return &Result{Stats: ExecStats{Class: ClassTxn}, SQL: "ROLLBACK"}, nil
	case *UseStmt:
		if err := s.Use(st.DB); err != nil {
			return nil, err
		}
		return &Result{Stats: ExecStats{Class: ClassTxn}, SQL: st.String()}, nil
	}

	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	res, err := s.eng.execLocked(s, ent.stmt, args)
	if err != nil {
		return nil, err
	}
	if res.Stats.Class == ClassWrite {
		if text == "" {
			text = renderSQL(ent.stmt, args, renderedLen(ent.norm, args))
		}
		res.SQL = text
		if !s.inTxn {
			// Autocommit: the statement is its own commit — stamp its
			// version marks before the lock drops and anything else can
			// observe them.
			s.finalizeStampsLocked()
		}
	}
	if res.Stats.Class == ClassWrite || res.Stats.Class == ClassDDL {
		s.recordCommit(res)
	}
	return res, nil
}

// renderedLen estimates the length of a normalized text with args
// interpolated, so rendering a write's binlog text takes one allocation.
func renderedLen(norm string, args []Value) int {
	n := len(norm)
	for _, a := range args {
		if a.kind == KindString {
			n += len(a.s) + 2
		} else {
			n += 20
		}
	}
	return n
}

// Use makes db the session's current database, as USE db does.
func (s *Session) Use(db string) error {
	if _, ok := s.eng.Database(db); !ok {
		return fmt.Errorf("sqlengine: unknown database %s", db)
	}
	s.db = db
	return nil
}

// Query is Exec for statements expected to return rows.
func (s *Session) Query(sql string, args ...Value) (*ResultSet, error) {
	res, err := s.Exec(sql, args...)
	if err != nil {
		return nil, err
	}
	if res.Set == nil {
		return nil, fmt.Errorf("sqlengine: statement returned no result set")
	}
	return res.Set, nil
}

// recordCommit routes a completed write to the commit hook, immediately in
// autocommit mode or buffered until COMMIT inside a transaction. DDL always
// commits immediately (MySQL's implicit-commit behaviour).
func (s *Session) recordCommit(res *Result) {
	s.oneSQL[0] = res.SQL
	sqls := s.oneSQL[:]
	if s.eng.Format == FormatRow && res.Stats.Class == ClassWrite {
		sqls = res.RowSQL
		if len(sqls) == 0 {
			return // write touched no rows: nothing to replicate
		}
	}
	if res.Stats.Class == ClassDDL || !s.inTxn {
		// An implicitly-committing statement flushes any open transaction
		// first, preserving order. recordCommit always runs with the engine
		// lock held, so the locked commit form is required here.
		if res.Stats.Class == ClassDDL && s.inTxn {
			s.commitLocked()
		}
		if s.eng.OnCommit != nil {
			s.eng.OnCommit(s.db, sqls)
		}
		return
	}
	s.pending = append(s.pending, sqls...)
}

func (s *Session) commit() {
	s.eng.mu.Lock()
	s.commitLocked()
	s.eng.mu.Unlock()
}

// commitLocked finalizes the transaction under the engine lock: provisional
// MVCC marks take the next commit version, buffered statements reach the
// binlog hook, and the session leaves the engine's open-transaction set.
func (s *Session) commitLocked() {
	s.finalizeStampsLocked()
	if s.inTxn && len(s.pending) > 0 && s.eng.OnCommit != nil {
		s.eng.OnCommit(s.db, s.pending)
	}
	s.eng.dropTxnLocked(s)
	s.pending = nil
	s.undo = nil
	s.inTxn = false
}

// rollback is the write-side abort path: the undo log physically restores
// heap/index state and pops the chain entries the transaction pushed, and
// the provisional version marks are discarded unstamped.
func (s *Session) rollback() {
	s.eng.mu.Lock()
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.undo[i]()
	}
	s.eng.provisional -= s.provisional
	s.provisional = 0
	s.stamps = nil
	s.eng.dropTxnLocked(s)
	s.eng.mu.Unlock()
	s.pending = nil
	s.undo = nil
	s.inTxn = false
}

// addUndo records an undo action. Only a transaction can roll back, so
// callers build undo actions only when s.inTxn.
func (s *Session) addUndo(fn func()) { s.undo = append(s.undo, fn) }

// resolveTable finds the table named by ref in the session's engine.
func (s *Session) resolveTable(ref TableRef) (*Database, *Table, error) {
	dbName := ref.DB
	if dbName == "" {
		dbName = s.db
	}
	if dbName == "" {
		return nil, nil, fmt.Errorf("sqlengine: no database selected")
	}
	db, ok := s.eng.dbs[strings.ToLower(dbName)]
	if !ok {
		return nil, nil, fmt.Errorf("sqlengine: unknown database %s", dbName)
	}
	t, ok := db.Table(ref.Name)
	if !ok {
		return db, nil, fmt.Errorf("sqlengine: unknown table %s.%s", dbName, ref.Name)
	}
	return db, t, nil
}

// walkStmt visits every expression in a statement.
func walkStmt(stmt Stmt, visit func(Expr)) {
	switch s := stmt.(type) {
	case *ExplainStmt:
		walkStmt(s.Inner, visit)
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				walkExpr(e, visit)
			}
		}
	case *UpdateStmt:
		for _, a := range s.Sets {
			walkExpr(a.Value, visit)
		}
		walkExpr(s.Where, visit)
	case *DeleteStmt:
		walkExpr(s.Where, visit)
	case *SelectStmt:
		for _, se := range s.Exprs {
			walkExpr(se.Expr, visit)
		}
		for _, j := range s.Joins {
			walkExpr(j.On, visit)
		}
		walkExpr(s.Where, visit)
		for _, g := range s.GroupBy {
			walkExpr(g, visit)
		}
		walkExpr(s.Having, visit)
		for _, o := range s.OrderBy {
			walkExpr(o.Expr, visit)
		}
		walkExpr(s.Limit, visit)
		walkExpr(s.Offset, visit)
	}
}

// walkExpr visits e and its children.
func walkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch e := e.(type) {
	case *Unary:
		walkExpr(e.X, visit)
	case *Binary:
		walkExpr(e.L, visit)
		walkExpr(e.R, visit)
	case *FuncCall:
		for _, a := range e.Args {
			walkExpr(a, visit)
		}
	case *InExpr:
		walkExpr(e.X, visit)
		for _, it := range e.List {
			walkExpr(it, visit)
		}
	case *BetweenExpr:
		walkExpr(e.X, visit)
		walkExpr(e.Lo, visit)
		walkExpr(e.Hi, visit)
	case *IsNullExpr:
		walkExpr(e.X, visit)
	case *LikeExpr:
		walkExpr(e.X, visit)
		walkExpr(e.Pattern, visit)
	}
}
