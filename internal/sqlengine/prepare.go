package sqlengine

import "fmt"

// Statement is a prepared statement: the SQL text parsed and normalized
// once, shareable across sessions and argument vectors. SELECT statements
// plan lazily through the engine's plan cache — one plan per (database,
// normalized SQL, planner mode) until a statistics epoch change retires it —
// so preparing is cheap and repeated Runs do no per-call planning work.
//
// The handle carries no resources beyond cache entries, but dropping it
// unused almost always indicates a lost result: cloudrepl-lint's closecheck
// flags Prepare results that are never consumed.
type Statement struct {
	eng *Engine
	sql string
	parseEntry
}

// Prepare parses sql (through the parse cache) and returns a prepared
// statement. Any statement kind can be prepared; only SELECTs are planned.
func (e *Engine) Prepare(sql string) (*Statement, error) {
	ent, err := e.parseEntry(sql)
	if err != nil {
		return nil, err
	}
	return &Statement{eng: e, sql: sql, parseEntry: ent}, nil
}

// SQL returns the original statement text.
func (st *Statement) SQL() string { return st.sql }

// Norm returns the normalized (canonical) rendering that keys the plan
// cache: textual variants with identical structure share one plan.
func (st *Statement) Norm() string { return st.norm }

// NumParams returns the number of ? placeholders the statement requires.
func (st *Statement) NumParams() int { return st.nparams }

// Run executes the statement on a session with the given arguments. SELECTs
// resolve their plan from the engine's plan cache (building it on first use
// or after a statistics epoch change); writes plan per execution and render
// their binlog text from the statement and args.
func (st *Statement) Run(s *Session, args ...Value) (*Result, error) {
	return s.exec(st.parseEntry, args, "")
}

// Render returns the statement text with args interpolated into its ?
// placeholders: the text a statement-format binlog records when the
// statement runs with args.
func (st *Statement) Render(args ...Value) (string, error) {
	if err := checkArgCount(st.nparams, args); err != nil {
		return "", err
	}
	return renderSQL(st.stmt, args, renderedLen(st.norm, args)), nil
}

// Query is Run for statements expected to return rows.
func (st *Statement) Query(s *Session, args ...Value) (*ResultSet, error) {
	res, err := st.Run(s, args...)
	if err != nil {
		return nil, err
	}
	if res.Set == nil {
		return nil, fmt.Errorf("sqlengine: statement returned no result set")
	}
	return res.Set, nil
}

// Plan returns the execution plan the engine will use for this statement on
// s's current database, building and caching it if needed. Only SELECT
// statements have plans. The returned Plan is immutable; iterate its
// rendering via Lines/Explain. The plan reflects statistics at call time —
// a later Run may plan afresh if the statistics epoch has advanced.
func (st *Statement) Plan(s *Session) (*Plan, error) {
	sel, ok := st.stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlengine: cannot plan %T", st.stmt)
	}
	e := st.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.planSelectLocked(s, sel)
}

// ExplainString renders the plan tree for this statement (SELECT only) in
// the stable EXPLAIN format.
func (st *Statement) ExplainString(s *Session) (string, error) {
	p, err := st.Plan(s)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}
