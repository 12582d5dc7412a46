package sqlengine

// Iterator operators execute a Plan's relational chain. Each operator fills
// its scope slot (sc.tables[slot].vals) and pulls from its outer input; the
// scope itself is the current row, so expression evaluation needs no
// per-operator row buffers. A true next() leaves every slot at or below the
// operator populated; the executor's tail (exec.go) reads each row from the
// scope as it streams by.
//
// Plans never fix visibility: at execution time a latest-version reader uses
// heaps and indexes directly, while a snapshot reader (behind the latest
// commit, or with concurrent provisional writers) degrades every index
// access to a chain-resolving visible-image scan. The recheck filters the
// planner leaves on index and join nodes keep degraded access exact.

// execCtx is the per-execution state shared by a pipeline's operators.
type execCtx struct {
	e     *Engine
	s     *Session
	sc    *scope
	readV uint64
	mvcc  bool // chain-resolving visibility scan required
	stats *ExecStats
	acts  []int64 // EXPLAIN ANALYZE per-node output counts (nil otherwise)
}

func (c *execCtx) emit(n *planNode) {
	if c.acts != nil {
		c.acts[n.id]++
	}
}

// rowIter is the operator interface: next advances to the following row,
// returning false at end of stream.
type rowIter interface {
	next() (bool, error)
}

// buildIter constructs the iterator pipeline for a plan chain.
func buildIter(ctx *execCtx, n *planNode) rowIter {
	switch n.kind {
	case opScan, opIndexScan:
		return &scanIter{ctx: ctx, n: n}
	case opFilter:
		return &filterIter{ctx: ctx, n: n, input: buildIter(ctx, n.input)}
	default:
		return &joinIter{ctx: ctx, n: n, input: buildIter(ctx, n.input)}
	}
}

// evalFilters evaluates a conjunct list against the current scope row,
// stopping at the first non-true conjunct (matching AND short-circuit).
func evalFilters(sc *scope, filters []Expr) (bool, error) {
	for _, f := range filters {
		v, err := sc.eval(f)
		if err != nil {
			return false, err
		}
		if v.IsNull() || !v.Bool() {
			return false, nil
		}
	}
	return true, nil
}

// scanIter is the driving access: full heap scan or index-equality bucket,
// degraded to a visible-image scan for snapshot readers.
type scanIter struct {
	ctx    *execCtx
	n      *planNode
	inited bool
	rows   []*Row    // latest-version candidates
	images [][]Value // snapshot-reader candidates
	i      int
}

func (it *scanIter) init() error {
	it.inited = true
	ctx, n := it.ctx, it.n
	if ctx.mvcc {
		// Indexes cover only latest images: resolve visibility through the
		// chains over heap plus graveyard, then rely on the node's filters
		// (which include the index equality as a recheck) for exactness.
		it.images = n.tbl.scanVisible(ctx.s, ctx.readV)
		ctx.stats.RowsExamined += len(it.images)
		return nil
	}
	if n.kind == opIndexScan {
		// The key expression is runtime-const; an evaluation error falls
		// back to the full scan, surfacing the error through the residual
		// predicate exactly where the pre-planner executor surfaced it.
		if v, err := ctx.sc.eval(n.eqExpr); err == nil {
			if rows, usable := n.tbl.lookupEq(n.eqCol, v); usable {
				it.rows = rows
				ctx.stats.RowsExamined += len(rows)
				ctx.stats.UsedIndex = true
				return nil
			}
		}
	}
	it.rows = n.tbl.Rows()
	ctx.stats.RowsExamined += len(it.rows)
	return nil
}

func (it *scanIter) next() (bool, error) {
	if !it.inited {
		if err := it.init(); err != nil {
			return false, err
		}
	}
	sc, n := it.ctx.sc, it.n
	for {
		var vals []Value
		if it.images != nil {
			if it.i >= len(it.images) {
				return false, nil
			}
			vals = it.images[it.i]
		} else {
			if it.i >= len(it.rows) {
				return false, nil
			}
			vals = it.rows[it.i].vals
		}
		it.i++
		sc.tables[n.slot].vals = vals
		ok, err := evalFilters(sc, n.filters)
		if err != nil {
			return false, err
		}
		if ok {
			it.ctx.emit(n)
			return true, nil
		}
	}
}

// row returns the latest-version row the scan last produced. Only a
// latest-version scan has one; writes, which never read through a snapshot,
// use it to find their target rows.
func (it *scanIter) row() *Row { return it.rows[it.i-1] }

// filterIter applies residual conjuncts over fully joined rows.
type filterIter struct {
	ctx   *execCtx
	n     *planNode
	input rowIter
}

func (it *filterIter) next() (bool, error) {
	for {
		ok, err := it.input.next()
		if err != nil || !ok {
			return false, err
		}
		pass, err := evalFilters(it.ctx.sc, it.n.filters)
		if err != nil {
			return false, err
		}
		if pass {
			it.ctx.emit(it.n)
			return true, nil
		}
	}
}

// joinIter executes nl_join, inl_join and hash_join nodes. All three share
// one loop: per outer row, produce the candidate inner rows, run the node's
// filters on each pair, and null-extend on a LEFT join with no survivor.
// Candidate production is what differs:
//
//   - nl_join: the whole inner heap per outer row.
//   - inl_join: the index-equality bucket for the outer key; a key
//     evaluation error falls back to the full heap (the residual equality
//     filter then reports the error against the first pair, exactly as the
//     pre-planner nested loop did).
//   - hash_join: a one-time build of inner rows keyed by the join column,
//     probed per outer row. Per-key buckets keep heap insertion order, so
//     output order is identical to the nested loop's.
//
// A snapshot reader degrades nl/inl to a nested loop over the inner table's
// visible images (resolved once, reused for every outer row); hash builds
// from the same visible images and needs no further degradation.
type joinIter struct {
	ctx   *execCtx
	n     *planNode
	input rowIter

	// inner-side candidate sources, resolved lazily
	images     []([]Value) // visible images (snapshot readers)
	haveImages bool
	built      bool
	buckets    map[string][][]Value // hash build, keyed by Value.appendKey
	kb         []byte               // hash key scratch

	// per-outer iteration state
	rowMatches []*Row    // latest-version candidates (nl/inl)
	valMatches [][]Value // image or hash-bucket candidates
	mi         int
	active     bool // an outer row is in flight
	matched    bool // it produced at least one surviving pair
}

func (it *joinIter) innerImages() [][]Value {
	if !it.haveImages {
		it.images = it.n.tbl.scanVisible(it.ctx.s, it.ctx.readV)
		it.haveImages = true
	}
	return it.images
}

// build constructs the hash table over the inner side. NULL keys never join,
// so they are left out of the table entirely.
func (it *joinIter) build() {
	it.built = true
	it.buckets = make(map[string][][]Value)
	add := func(vals []Value) {
		v := vals[it.n.eqCol]
		if v.IsNull() {
			return
		}
		it.kb = v.appendKey(it.kb[:0])
		it.buckets[string(it.kb)] = append(it.buckets[string(it.kb)], vals)
	}
	if it.ctx.mvcc {
		for _, vals := range it.innerImages() {
			add(vals)
		}
		it.ctx.stats.RowsExamined += len(it.images)
	} else {
		rows := it.n.tbl.Rows()
		for _, r := range rows {
			add(r.vals)
		}
		it.ctx.stats.RowsExamined += len(rows)
	}
}

// beginOuter resolves the candidate inner rows for the outer row currently
// in scope.
func (it *joinIter) beginOuter() error {
	ctx, n := it.ctx, it.n
	it.rowMatches, it.valMatches = nil, nil
	switch {
	case n.kind == opHashJoin:
		if !it.built {
			it.build()
		}
		if len(it.buckets) == 0 {
			return nil // empty build: probe keys need not be evaluated
		}
		v, err := ctx.sc.eval(n.eqExpr)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		it.kb = v.appendKey(it.kb[:0])
		it.valMatches = it.buckets[string(it.kb)]
		ctx.stats.RowsExamined += len(it.valMatches)
	case ctx.mvcc:
		// nl/inl degrade to a nested loop over visible images.
		it.valMatches = it.innerImages()
		ctx.stats.RowsExamined += len(it.valMatches)
	case n.kind == opINLJoin:
		indexed := false
		if v, err := ctx.sc.eval(n.eqExpr); err == nil {
			if rows, usable := n.tbl.lookupEq(n.eqCol, v); usable {
				it.rowMatches = rows
				indexed = true
			}
		}
		if !indexed {
			it.rowMatches = n.tbl.Rows()
		}
		ctx.stats.RowsExamined += len(it.rowMatches)
	default: // opNLJoin
		it.rowMatches = n.tbl.Rows()
		ctx.stats.RowsExamined += len(it.rowMatches)
	}
	return nil
}

func (it *joinIter) next() (bool, error) {
	sc, n := it.ctx.sc, it.n
	for {
		if !it.active {
			ok, err := it.input.next()
			if err != nil || !ok {
				return false, err
			}
			if err := it.beginOuter(); err != nil {
				return false, err
			}
			it.active, it.matched, it.mi = true, false, 0
		}
		nm := len(it.rowMatches) + len(it.valMatches)
		for it.mi < nm {
			var vals []Value
			if it.rowMatches != nil {
				vals = it.rowMatches[it.mi].vals
			} else {
				vals = it.valMatches[it.mi]
			}
			it.mi++
			sc.tables[n.slot].vals = vals
			ok, err := evalFilters(sc, n.filters)
			if err != nil {
				return false, err
			}
			if ok {
				it.matched = true
				it.ctx.emit(n)
				return true, nil
			}
		}
		it.active = false
		if !it.matched && n.left {
			sc.tables[n.slot].vals = nil
			it.ctx.emit(n)
			return true, nil
		}
	}
}
