package sqlengine

import (
	"fmt"
	"sort"
	"strings"
)

// execLocked executes a non-transaction statement. The engine mutex is held
// by the caller. Statements arrive as the parameterized AST with args
// carried separately: reads share cached plans across argument vectors,
// writes plan per execution against them, and both resolve each ? through
// the scope's args. A write's Result.SQL is filled in by the caller.
func (e *Engine) execLocked(s *Session, stmt Stmt, args []Value) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateDatabaseStmt:
		if err := e.createDatabaseLocked(st.Name, st.IfNotExists); err != nil {
			return nil, err
		}
		return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
	case *CreateTableStmt:
		return e.execCreateTable(s, st)
	case *DropTableStmt:
		return e.execDropTable(s, st)
	case *TruncateStmt:
		_, tbl, err := s.resolveTable(st.Table)
		if err != nil {
			return nil, err
		}
		n := tbl.NumRows()
		tbl.Truncate()
		e.bumpStatsEpochLocked()
		return &Result{Stats: ExecStats{Class: ClassDDL, RowsAffected: n}, SQL: st.String()}, nil
	case *InsertStmt:
		return e.execInsert(s, st, args)
	case *UpdateStmt:
		return e.execUpdate(s, st, args)
	case *DeleteStmt:
		return e.execDelete(s, st, args)
	case *SelectStmt:
		return e.execSelect(s, st, args)
	case *ExplainStmt:
		return e.execExplain(s, st, args)
	case *ShowStmt:
		return e.execShow(s, st)
	case *DescribeStmt:
		return e.execDescribe(s, st)
	default:
		return nil, fmt.Errorf("sqlengine: cannot execute %T", stmt)
	}
}

func (e *Engine) createDatabaseLocked(name string, ifNotExists bool) error {
	key := strings.ToLower(name)
	if _, ok := e.dbs[key]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("sqlengine: database %s exists", name)
	}
	e.dbs[key] = &Database{Name: name, tables: make(map[string]*Table)}
	return nil
}

func (e *Engine) execCreateTable(s *Session, st *CreateTableStmt) (*Result, error) {
	dbName := st.Table.DB
	if dbName == "" {
		dbName = s.db
	}
	if dbName == "" {
		return nil, fmt.Errorf("sqlengine: no database selected")
	}
	db, ok := e.dbs[strings.ToLower(dbName)]
	if !ok {
		return nil, fmt.Errorf("sqlengine: unknown database %s", dbName)
	}
	key := strings.ToLower(st.Table.Name)
	if _, exists := db.tables[key]; exists {
		if st.IfNotExists {
			return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
		}
		return nil, fmt.Errorf("sqlengine: table %s.%s exists", dbName, st.Table.Name)
	}
	tbl, err := NewTable(st.Table.Name, st.Columns, st.PrimaryKey, st.Indexes)
	if err != nil {
		return nil, err
	}
	db.tables[key] = tbl
	e.bumpStatsEpochLocked()
	return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
}

func (e *Engine) execDropTable(s *Session, st *DropTableStmt) (*Result, error) {
	dbName := st.Table.DB
	if dbName == "" {
		dbName = s.db
	}
	db, ok := e.dbs[strings.ToLower(dbName)]
	if !ok {
		return nil, fmt.Errorf("sqlengine: unknown database %s", dbName)
	}
	key := strings.ToLower(st.Table.Name)
	if _, exists := db.tables[key]; !exists {
		if st.IfExists {
			return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
		}
		return nil, fmt.Errorf("sqlengine: unknown table %s.%s", dbName, st.Table.Name)
	}
	delete(db.tables, key)
	e.bumpStatsEpochLocked()
	return &Result{Stats: ExecStats{Class: ClassDDL}, SQL: st.String()}, nil
}

func (e *Engine) execInsert(s *Session, st *InsertStmt, args []Value) (*Result, error) {
	_, tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	// Map statement columns to table positions.
	var positions []int
	if len(st.Columns) == 0 {
		positions = make([]int, len(tbl.Columns))
		for i := range positions {
			positions[i] = i
		}
	} else {
		positions = make([]int, 0, len(st.Columns))
		for _, name := range st.Columns {
			pos, ok := tbl.ColPos(name)
			if !ok {
				return nil, fmt.Errorf("sqlengine: unknown column %s in INSERT", name)
			}
			positions = append(positions, pos)
		}
	}
	sc := &scope{eng: e, args: args}
	stats := ExecStats{Class: ClassWrite}
	var inserted []*Row
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("sqlengine: INSERT row has %d values, want %d", len(exprRow), len(positions))
		}
		vals := make([]Value, len(tbl.Columns))
		for i := range vals {
			vals[i] = Null
		}
		for i, ex := range exprRow {
			v, err := sc.eval(ex)
			if err != nil {
				return nil, err
			}
			vals[positions[i]] = v
		}
		r, err := tbl.Insert(vals)
		if err != nil {
			// Undo prior rows of this statement for atomicity.
			for _, prev := range inserted {
				tbl.Delete(prev)
			}
			return nil, err
		}
		inserted = append(inserted, r)
		stats.RowsAffected++
	}
	rows := inserted
	for _, r := range rows {
		r.begin = provisionalVersion
		if s.inTxn {
			r.txn = s
		}
	}
	s.addStamp(func(cv uint64) {
		for _, r := range rows {
			r.begin = cv
			r.txn = nil
		}
	})
	if s.inTxn {
		s.addUndo(func() {
			for i := len(rows) - 1; i >= 0; i-- {
				tbl.Delete(rows[i])
			}
		})
	}
	res := &Result{Stats: stats}
	if e.Format == FormatRow {
		for _, r := range inserted {
			res.RowSQL = append(res.RowSQL, renderRowInsert(tbl, r.vals))
		}
	}
	// In statement format the binlog stores the statement text so the slave
	// re-evaluates builtins against its own clock.
	return res, nil
}

func (e *Engine) execUpdate(s *Session, st *UpdateStmt, args []Value) (*Result, error) {
	p, err := e.planWriteLocked(s, st.Table, st.Where, args)
	if err != nil {
		return nil, err
	}
	tbl := p.tables[0].tbl

	// Pre-resolve SET columns.
	var setPos []int
	for _, a := range st.Sets {
		pos, ok := tbl.ColPos(a.Column)
		if !ok {
			return nil, fmt.Errorf("sqlengine: unknown column %s in UPDATE", a.Column)
		}
		setPos = append(setPos, pos)
	}

	stats := ExecStats{Class: ClassWrite}
	sc := &scope{eng: e, args: args}
	targets, err := e.writeTargets(s, p, sc, &stats)
	if err != nil {
		return nil, err
	}
	type undoRec struct {
		r      *Row
		old    []Value
		pushed *rowVersion
	}
	popChain := func(rec undoRec) {
		if rec.pushed != nil {
			rec.r.prev = rec.pushed.prev
			rec.r.begin = rec.pushed.begin
			rec.r.txn = nil
		}
	}
	var undos []undoRec
	for _, r := range targets {
		sc.tables[0].vals = r.vals
		newVals := append([]Value(nil), r.vals...)
		changed := false
		for i, a := range st.Sets {
			v, err := sc.eval(a.Value)
			if err != nil {
				return nil, err
			}
			newVals[setPos[i]] = v
			changed = true
		}
		if !changed {
			continue
		}
		old := append([]Value(nil), r.vals...)
		var pushed *rowVersion
		if r.txn == nil {
			// Committed image: supersede it on the version chain. A row
			// already provisional (same-transaction rewrite, or a foreign
			// open writer) is overwritten in place — intra-transaction
			// rewrites create no versions, and concurrent writers to one
			// row keep the engine's last-write-wins semantics.
			pushed = &rowVersion{vals: old, begin: r.begin, prev: r.prev}
		}
		if err := tbl.Update(r, newVals); err != nil {
			for i := len(undos) - 1; i >= 0; i-- {
				_ = tbl.Update(undos[i].r, undos[i].old)
				popChain(undos[i])
			}
			return nil, err
		}
		if pushed != nil {
			r.prev = pushed
			r.begin = provisionalVersion
			if s.inTxn {
				r.txn = s
			}
		}
		undos = append(undos, undoRec{r, old, pushed})
		stats.RowsAffected++
	}
	if len(undos) > 0 {
		recs := undos
		s.addStamp(func(cv uint64) {
			for _, rec := range recs {
				if rec.pushed != nil {
					rec.pushed.end = cv
					rec.r.begin = cv
					rec.r.txn = nil
				}
			}
		})
		if s.inTxn {
			s.addUndo(func() {
				for i := len(recs) - 1; i >= 0; i-- {
					_ = tbl.Update(recs[i].r, recs[i].old)
					popChain(recs[i])
				}
			})
		}
	}
	res := &Result{Stats: stats}
	if e.Format == FormatRow {
		for _, rec := range undos {
			res.RowSQL = append(res.RowSQL, renderRowUpdate(tbl, rec.old, rec.r.vals))
		}
	}
	return res, nil
}

func (e *Engine) execDelete(s *Session, st *DeleteStmt, args []Value) (*Result, error) {
	p, err := e.planWriteLocked(s, st.Table, st.Where, args)
	if err != nil {
		return nil, err
	}
	tbl := p.tables[0].tbl
	stats := ExecStats{Class: ClassWrite}
	targets, err := e.writeTargets(s, p, &scope{eng: e, args: args}, &stats)
	if err != nil {
		return nil, err
	}
	for _, r := range targets {
		// MVCC delete: out of the heap, primary key and indexes (latest
		// readers must not see it), into the graveyard for snapshot readers
		// until chain GC reclaims it. The end stamp finalizes at commit.
		tbl.Delete(r)
		tbl.graveyard = append(tbl.graveyard, r)
		r.end = provisionalVersion
		if s.inTxn {
			r.txn = s
		}
		stats.RowsAffected++
	}
	if len(targets) > 0 {
		rows := targets
		s.addStamp(func(cv uint64) {
			for _, r := range rows {
				r.end = cv
				r.txn = nil
			}
		})
		if s.inTxn {
			s.addUndo(func() {
				for i := len(rows) - 1; i >= 0; i-- {
					rows[i].end = 0
					rows[i].txn = nil
					tbl.relink(rows[i])
				}
			})
		}
	}
	res := &Result{Stats: stats}
	if e.Format == FormatRow {
		for _, r := range targets {
			res.RowSQL = append(res.RowSQL, renderRowDelete(tbl, r.vals))
		}
	}
	return res, nil
}

// conjuncts flattens an AND tree.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// writeTargets runs a write plan's scan and filter operators and returns
// every row the WHERE selects, before any of them is modified. Writes act on
// the latest row versions, never through a snapshot, so the scan yields
// *Rows. sc, which carries the statement's args, gets the table's scope
// slot, which UPDATE reuses for SET.
func (e *Engine) writeTargets(s *Session, p *Plan, sc *scope, stats *ExecStats) ([]*Row, error) {
	pt := p.tables[0]
	sc.tables = []scopeTable{{pt.lower, pt.tbl, nil}}
	ctx := &execCtx{e: e, s: s, sc: sc, stats: stats}
	// A single-table plan is the driving access, optionally under one
	// residual filter.
	scan := &scanIter{ctx: ctx, n: p.root}
	var it rowIter = scan
	if p.root.kind == opFilter {
		scan.n = p.root.input
		it = &filterIter{ctx: ctx, n: p.root, input: scan}
	}
	var targets []*Row
	err := forEach(it, func() error {
		targets = append(targets, scan.row())
		return nil
	})
	return targets, err
}

// jrow is one joined row: per scope table, its values (nil = LEFT JOIN miss).
type jrow [][]Value

func (e *Engine) execSelect(s *Session, st *SelectStmt, args []Value) (*Result, error) {
	p, err := e.planSelectLocked(s, st)
	if err != nil {
		return nil, err
	}
	return e.execPlan(s, p, args, nil)
}

// execPlan runs a built plan: the iterator pipeline (operators.go) streams
// joined rows straight into the projection / aggregation / order tail the
// plan chose, and the limit finishes the result. acts, when non-nil,
// receives per-node output counts for EXPLAIN ANALYZE.
func (e *Engine) execPlan(s *Session, p *Plan, args []Value, acts []int64) (*Result, error) {
	if err := checkArgCount(p.nparams, args); err != nil {
		return nil, err
	}
	st := p.stmt
	stats := ExecStats{Class: ClassRead}
	sc := &scope{eng: e, args: args}

	// Table-less SELECT: evaluate once against the empty scope.
	if st.From == nil {
		var cols []string
		var row []Value
		for _, se := range st.Exprs {
			if se.Star {
				return nil, fmt.Errorf("sqlengine: SELECT * requires FROM")
			}
			v, err := sc.eval(se.Expr)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			cols = append(cols, selectColName(se))
		}
		if acts != nil && len(p.tail) > 0 {
			acts[p.tail[0].id] = 1
		}
		stats.RowsReturned = 1
		return &Result{Set: &ResultSet{Columns: cols, Rows: [][]Value{row}}, Stats: stats}, nil
	}

	for _, pt := range p.tables {
		sc.tables = append(sc.tables, scopeTable{pt.lower, pt.tbl, nil})
	}

	// Visibility is decided per execution, never per plan: a latest-version
	// reader uses heaps and indexes directly, a snapshot reader degrades
	// index access to chain-resolving scans inside the operators.
	readV, mvccScan := e.readViewFor(s)
	ctx := &execCtx{e: e, s: s, sc: sc, readV: readV, mvcc: mvccScan, stats: &stats, acts: acts}
	it := buildIter(ctx, p.root)

	var set *ResultSet
	var err error
	switch {
	case p.tail[len(p.tail)-1].kind == opHashAgg: // innermost tail node
		set, err = e.aggSelect(sc, st, it)
	case p.topN >= 0:
		set, err = e.topNSelect(sc, st, it, p.topN)
	default:
		set, err = e.plainSelect(sc, st, it)
	}
	if err != nil {
		return nil, err
	}
	setTailActs := func(kinds ...opKind) {
		if acts == nil {
			return
		}
		for _, n := range p.tail {
			for _, k := range kinds {
				if n.kind == k {
					acts[n.id] = int64(len(set.Rows))
				}
			}
		}
	}
	setTailActs(opHashAgg, opProject, opSort, opTopN)
	if st.Distinct {
		set.Rows = distinctRows(set.Rows)
		setTailActs(opDistinct)
	}
	if set.Rows, err = applyLimit(st, set.Rows, sc); err != nil {
		return nil, err
	}
	setTailActs(opLimit)
	stats.RowsReturned = len(set.Rows)
	return &Result{Set: set, Stats: stats}, nil
}

// forEach pulls it to exhaustion, calling fn while each row is in scope.
func forEach(it rowIter, fn func() error) error {
	for {
		ok, err := it.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(); err != nil {
			return err
		}
	}
}

func setScope(sc *scope, row jrow) {
	for i := range sc.tables {
		sc.tables[i].vals = row[i]
	}
}

// joinEqPattern finds `rightRef.col = expr` (or mirrored) in the ON clause
// where expr does not mention rightRef; returns the column position or -1.
func joinEqPattern(on Expr, rightRef string, rightTbl *Table) (int, Expr) {
	for _, c := range conjuncts(on) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for _, try := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			col, ok := try[0].(*ColRef)
			if !ok || strings.ToLower(col.Table) != rightRef {
				continue
			}
			pos, ok := rightTbl.ColPos(col.Name)
			if !ok {
				continue
			}
			mentionsRight := false
			walkExpr(try[1], func(x Expr) {
				if cr, ok := x.(*ColRef); ok && strings.ToLower(cr.Table) == rightRef {
					mentionsRight = true
				}
			})
			if !mentionsRight {
				return pos, try[1]
			}
		}
	}
	return -1, nil
}

// sortableRow pairs projected values with ORDER BY keys.
type sortableRow struct {
	proj []Value
	keys []Value
}

func (e *Engine) plainSelect(sc *scope, st *SelectStmt, it rowIter) (*ResultSet, error) {
	cols := projectionColumns(sc, st)
	// One alias map per query, values overwritten per row (orderKeys reads
	// them before the next row) — and none at all unless ORDER BY could
	// reference an alias. The per-row map was the engine's top allocator.
	aliases := aliasMapFor(st)
	// Each row's projection and sort keys share one region of a chunked
	// backing array: one allocation per 64 rows rather than one per row
	// (full scans with ORDER BY were the engine's top allocator). The
	// full-cap reslices keep each row's region — and its proj/keys halves —
	// disjoint; if a projection ever outgrows its stride, append spills it
	// to a fresh array and the reserved region simply goes unused.
	stride := len(cols) + len(st.OrderBy)
	var out []sortableRow
	var chunk []Value
	err := forEach(it, func() error {
		if len(chunk) < stride {
			chunk = make([]Value, 64*stride)
		}
		buf := chunk[0:0:stride]
		chunk = chunk[stride:]
		buf, err := appendProjection(buf, sc, st, aliases)
		if err != nil {
			return err
		}
		projLen := len(buf)
		buf, err = appendOrderKeys(buf, sc, st, aliases, nil, nil)
		if err != nil {
			return err
		}
		out = append(out, sortableRow{buf[:projLen:projLen], buf[projLen:]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortRows(st, out)
	set := &ResultSet{Columns: cols, Rows: make([][]Value, len(out))}
	for i, r := range out {
		set.Rows[i] = r.proj
	}
	return set, nil
}

// topNSelect keeps only the top rows of the stable sort order while
// scanning: each row's sort keys are computed first, rows that cannot make
// the cut are dropped before their projection is ever evaluated, and
// survivors are inserted into a bounded buffer kept in stable sorted order
// (ties lose to rows already present, exactly as a stable full sort would
// place them). The result is byte-identical to sort-everything-then-limit
// at a fraction of the cost: ORDER BY ... LIMIT over a full scan is the
// workload's hottest read shape.
func (e *Engine) topNSelect(sc *scope, st *SelectStmt, it rowIter, top int) (*ResultSet, error) {
	cols := projectionColumns(sc, st)
	lessKeys := func(a, b []Value) bool {
		for k := range st.OrderBy {
			c := Compare(a[k], b[k])
			if c == 0 {
				continue
			}
			if st.OrderBy[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	// The bound comes from the query text and may dwarf the input; the
	// buffer grows on demand past a small start.
	best := make([]sortableRow, 0, min(top, 64))
	scratch := make([]Value, 0, len(st.OrderBy))
	// Accepted rows draw their backing from chunks: a scan that arrives in
	// worst-case order (every row beats the current cut) would otherwise
	// allocate per row. Evicted rows' regions are simply abandoned — memory
	// stays bounded by the scan size, exactly like the sort-everything path.
	stride := len(cols) + len(st.OrderBy)
	var chunk []Value
	err := forEach(it, func() error {
		var err error
		scratch, err = appendOrderKeys(scratch[:0], sc, st, nil, nil, nil)
		if err != nil {
			return err
		}
		if len(best) == top && (top == 0 || !lessKeys(scratch, best[len(best)-1].keys)) {
			return nil
		}
		if len(chunk) < stride {
			chunk = make([]Value, 64*stride)
		}
		buf := chunk[0:0:stride]
		chunk = chunk[stride:]
		buf, err = appendProjection(buf, sc, st, nil)
		if err != nil {
			return err
		}
		projLen := len(buf)
		buf = append(buf, scratch...)
		nr := sortableRow{buf[:projLen:projLen], buf[projLen:]}
		pos := sort.Search(len(best), func(i int) bool { return lessKeys(nr.keys, best[i].keys) })
		if len(best) == top {
			best = best[:len(best)-1] // evict the worst; pos ≤ len-1 since nr beat it
		}
		best = append(best, sortableRow{})
		copy(best[pos+1:], best[pos:])
		best[pos] = nr
		return nil
	})
	if err != nil {
		return nil, err
	}
	set := &ResultSet{Columns: cols, Rows: make([][]Value, len(best))}
	for i, r := range best {
		set.Rows[i] = r.proj
	}
	return set, nil
}

// aliasMapFor returns a reusable SELECT-alias map when st's ORDER BY could
// resolve against one, nil otherwise (projectRow skips alias bookkeeping
// on nil).
func aliasMapFor(st *SelectStmt) map[string]Value {
	if len(st.OrderBy) == 0 {
		return nil
	}
	for _, se := range st.Exprs {
		if se.Alias != "" {
			return make(map[string]Value, 4)
		}
	}
	return nil
}

// aggSelect groups the streamed rows and evaluates aggregate projections
// per group. It is the one tail that materializes joined rows, because an
// aggregate folds its whole group.
func (e *Engine) aggSelect(sc *scope, st *SelectStmt, it rowIter) (*ResultSet, error) {
	type group struct {
		rows []jrow
	}
	var groups []*group
	index := map[string]*group{}
	if len(st.GroupBy) == 0 {
		// A global aggregate has one group, present even over no rows.
		g := &group{}
		index[""] = g
		groups = append(groups, g)
	}
	// Group members are copied out of the scope into chunked jrow backing —
	// one allocation per 64 rows rather than one per row.
	nt := len(sc.tables)
	var chunk jrow
	var kb []byte // reused per row; a string materializes only on a new group
	err := forEach(it, func() error {
		kb = kb[:0]
		for _, ge := range st.GroupBy {
			v, err := sc.eval(ge)
			if err != nil {
				return err
			}
			kb = v.appendKey(kb)
			kb = append(kb, 0x1f)
		}
		g, ok := index[string(kb)]
		if !ok {
			g = &group{}
			index[string(kb)] = g
			groups = append(groups, g)
		}
		if len(chunk) < nt {
			chunk = make(jrow, 64*nt)
		}
		row := chunk[0:nt:nt]
		chunk = chunk[nt:]
		for i := range sc.tables {
			row[i] = sc.tables[i].vals
		}
		g.rows = append(g.rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}

	cols := projectionColumns(sc, st)
	aliases := aliasMapFor(st)
	out := make([]sortableRow, 0, len(groups))
	for _, g := range groups {
		if st.Having != nil {
			v, err := evalAgg(sc, st.Having, g.rows)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Bool() {
				continue
			}
		}
		// Shared backing array for projection + keys, as in plainSelect.
		buf := make([]Value, 0, len(cols)+len(st.OrderBy))
		for _, se := range st.Exprs {
			if se.Star {
				return nil, fmt.Errorf("sqlengine: SELECT * cannot be mixed with aggregates")
			}
			v, err := evalAgg(sc, se.Expr, g.rows)
			if err != nil {
				return nil, err
			}
			buf = append(buf, v)
			if se.Alias != "" && aliases != nil {
				aliases[strings.ToLower(se.Alias)] = v
			}
		}
		projLen := len(buf)
		buf, err := appendOrderKeys(buf, sc, st, aliases, g.rows, evalAgg)
		if err != nil {
			return nil, err
		}
		out = append(out, sortableRow{buf[:projLen:projLen], buf[projLen:]})
	}
	sortRows(st, out)
	set := &ResultSet{Columns: cols}
	for _, r := range out {
		set.Rows = append(set.Rows, r.proj)
	}
	return set, nil
}

// evalAgg evaluates an expression over a group: aggregates fold the group,
// other nodes evaluate against the group's first row.
func evalAgg(sc *scope, e Expr, group []jrow) (Value, error) {
	switch e := e.(type) {
	case *FuncCall:
		if !isAggregate(e.Name) {
			if len(group) > 0 {
				setScope(sc, group[0])
			}
			return sc.eval(e)
		}
		return foldAggregate(sc, e, group)
	case *Binary:
		l, err := evalAgg(sc, e.L, group)
		if err != nil {
			return Null, err
		}
		r, err := evalAgg(sc, e.R, group)
		if err != nil {
			return Null, err
		}
		tmp := &Binary{e.Op, &Literal{l}, &Literal{r}}
		return sc.evalBinary(tmp)
	case *Unary:
		x, err := evalAgg(sc, e.X, group)
		if err != nil {
			return Null, err
		}
		return sc.eval(&Unary{e.Op, &Literal{x}})
	default:
		if len(group) > 0 {
			setScope(sc, group[0])
		}
		return sc.eval(e)
	}
}

func foldAggregate(sc *scope, f *FuncCall, group []jrow) (Value, error) {
	if f.Name == "COUNT" && f.Star {
		return NewInt(int64(len(group))), nil
	}
	if len(f.Args) != 1 {
		return Null, fmt.Errorf("sqlengine: %s expects one argument", f.Name)
	}
	var count int64
	var sumF float64
	var sumI int64
	anyFloat := false
	var minV, maxV Value
	seen := map[string]bool{}
	for _, row := range group {
		setScope(sc, row)
		v, err := sc.eval(f.Args[0])
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if f.Distinct {
			k := v.key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		count++
		if v.Kind() == KindFloat {
			anyFloat = true
		}
		sumF += v.Float()
		sumI += v.Int()
		if minV.IsNull() || Compare(v, minV) < 0 {
			minV = v
		}
		if maxV.IsNull() || Compare(v, maxV) > 0 {
			maxV = v
		}
	}
	switch f.Name {
	case "COUNT":
		return NewInt(count), nil
	case "SUM":
		if count == 0 {
			return Null, nil
		}
		if anyFloat {
			return NewFloat(sumF), nil
		}
		return NewInt(sumI), nil
	case "AVG":
		if count == 0 {
			return Null, nil
		}
		return NewFloat(sumF / float64(count)), nil
	case "MIN":
		return minV, nil
	case "MAX":
		return maxV, nil
	}
	return Null, fmt.Errorf("sqlengine: unknown aggregate %s", f.Name)
}

// projectionColumns derives output column names.
func projectionColumns(sc *scope, st *SelectStmt) []string {
	var cols []string
	for _, se := range st.Exprs {
		if se.Star {
			for _, t := range sc.tables {
				for _, c := range t.tbl.Columns {
					cols = append(cols, c.Name)
				}
			}
			continue
		}
		cols = append(cols, selectColName(se))
	}
	return cols
}

func selectColName(se SelectExpr) string {
	if se.Alias != "" {
		return se.Alias
	}
	if c, ok := se.Expr.(*ColRef); ok {
		return c.Name
	}
	return se.Expr.String()
}

// appendProjection evaluates the projection for the current scope row,
// appending onto buf (callers size buf for projection + ORDER BY keys so
// both live in one allocation). Aliased values are published into aliases
// when the caller passes one (nil means no ORDER BY alias can need them).
func appendProjection(buf []Value, sc *scope, st *SelectStmt, aliases map[string]Value) ([]Value, error) {
	proj := buf
	for _, se := range st.Exprs {
		if se.Star {
			for _, t := range sc.tables {
				if t.vals == nil {
					for range t.tbl.Columns {
						proj = append(proj, Null)
					}
				} else {
					proj = append(proj, t.vals...)
				}
			}
			continue
		}
		v, err := sc.eval(se.Expr)
		if err != nil {
			return nil, err
		}
		proj = append(proj, v)
		if se.Alias != "" && aliases != nil {
			aliases[strings.ToLower(se.Alias)] = v
		}
	}
	return proj, nil
}

// appendOrderKeys computes ORDER BY sort keys for the current row/group,
// appending onto buf. Bare column references matching a projection alias
// use the projected value.
func appendOrderKeys(buf []Value, sc *scope, st *SelectStmt, aliases map[string]Value, group []jrow,
	aggEval func(*scope, Expr, []jrow) (Value, error)) ([]Value, error) {
	for _, item := range st.OrderBy {
		if c, ok := item.Expr.(*ColRef); ok && c.Table == "" {
			if v, hit := aliases[strings.ToLower(c.Name)]; hit {
				buf = append(buf, v)
				continue
			}
		}
		var v Value
		var err error
		if aggEval != nil {
			v, err = aggEval(sc, item.Expr, group)
		} else {
			v, err = sc.eval(item.Expr)
		}
		if err != nil {
			return nil, err
		}
		buf = append(buf, v)
	}
	return buf, nil
}

// rowSorter is a concrete sort.Interface over sortable rows: ORDER BY runs
// on every scanned row of a sorted scan, and sort.SliceStable's
// reflection-based swapper was ~20% of a full experiment cell's CPU.
type rowSorter struct {
	rows  []sortableRow
	order []OrderItem
}

func (s *rowSorter) Len() int      { return len(s.rows) }
func (s *rowSorter) Swap(i, j int) { s.rows[i], s.rows[j] = s.rows[j], s.rows[i] }
func (s *rowSorter) Less(i, j int) bool {
	for k := range s.order {
		c := Compare(s.rows[i].keys[k], s.rows[j].keys[k])
		if c == 0 {
			continue
		}
		if s.order[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func sortRows(st *SelectStmt, rows []sortableRow) {
	if len(st.OrderBy) == 0 {
		return
	}
	// Stable sort output is uniquely determined by the comparator and input
	// order, so swapping implementations cannot perturb determinism.
	sort.Stable(&rowSorter{rows: rows, order: st.OrderBy})
}

func distinctRows(rows [][]Value) [][]Value {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		var kb strings.Builder
		for _, v := range r {
			kb.WriteString(v.key())
			kb.WriteByte(0x1f)
		}
		k := kb.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// limitConst evaluates a LIMIT/OFFSET expression: it must reference no
// columns, but may reference ? parameters resolved through the scope's args.
func limitConst(sc *scope, e Expr) (Value, bool) {
	if !runtimeConst(e) {
		return Null, false
	}
	v, err := sc.eval(e)
	if err != nil {
		return Null, false
	}
	return v, true
}

func applyLimit(st *SelectStmt, rows [][]Value, sc *scope) ([][]Value, error) {
	offset := 0
	if st.Offset != nil {
		v, ok := limitConst(sc, st.Offset)
		if !ok {
			return nil, fmt.Errorf("sqlengine: OFFSET must be constant")
		}
		offset = int(v.Int())
	}
	if offset > 0 {
		if offset >= len(rows) {
			return nil, nil
		}
		rows = rows[offset:]
	}
	if st.Limit != nil {
		v, ok := limitConst(sc, st.Limit)
		if !ok {
			return nil, fmt.Errorf("sqlengine: LIMIT must be constant")
		}
		n := int(v.Int())
		if n < len(rows) {
			rows = rows[:n]
		}
	}
	return rows, nil
}
