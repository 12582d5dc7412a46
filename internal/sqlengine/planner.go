package sqlengine

import (
	"fmt"
	"strings"
)

// The planner builds a Plan (plan.go) for a SELECT, and for the target rows
// of an UPDATE or DELETE (planWriteLocked), in one of two modes.
//
// The cost-based mode pools WHERE and (inner) ON conjuncts, pushes each down
// to the earliest operator where all referenced tables are bound, picks
// access paths and a greedy join order, and chooses index-nested-loop vs
// hash vs nested-loop per join by estimated rows examined — the currency the
// server's virtual CPU model charges, so minimizing it maximizes simulated
// throughput. Any LEFT join switches the query to syntax order with
// ON-conjuncts kept at their join (null-extension makes reordering and WHERE
// pooling unsound in general); only driving-table-only WHERE conjuncts are
// pushed.
//
// The naive mode reproduces the pre-planner executor exactly — first usable
// `col = const` WHERE conjunct picks the driving index, joins run in syntax
// order with per-join index lookups when available, and the whole WHERE
// applies after all joins — so the A-PLAN ablation's baseline arm and the
// engine's published figures stay byte-for-byte stable.

// probePenalty charges an index-nested-loop probe the equivalent of two
// sequentially scanned rows: each probe is a random index access, while a
// hash build reads its input sequentially. This is what lets hash join win
// on unselective outers even when an inner index exists.
const probePenalty = 2.0

// Default selectivities when statistics cannot say better.
const (
	defaultRangeSel   = 1.0 / 3
	defaultLikeSel    = 0.25
	defaultIsNullSel  = 0.1
	defaultBetweenSel = 0.25
	defaultSel        = 1.0 / 3
)

// planSelectLocked returns the cached or freshly built plan for st under the
// session's database and the engine's current planner mode. Engine lock held.
func (e *Engine) planSelectLocked(s *Session, st *SelectStmt) (*Plan, error) {
	mode := "c"
	if e.NaivePlan {
		mode = "n"
	}
	key := strings.ToLower(s.db) + "\x00" + mode + "\x00" + st.normKey()
	if p, ok := e.planCache[key]; ok && p.epoch == e.statsEpoch {
		// Writes don't advance the stats epoch, so a hot cached plan could
		// otherwise outlive arbitrary data drift: re-plan (which re-analyzes)
		// when any involved table has drifted past the staleness threshold.
		if e.NaivePlan || !p.staleStats() {
			return p, nil
		}
	}
	p, err := e.buildPlanLocked(s, st, e.NaivePlan)
	if err != nil {
		return nil, err
	}
	e.planCache[key] = p
	return p, nil
}

// countParams returns the number of ? parameters in the statement.
func countParams(st Stmt) int {
	n := 0
	walkStmt(st, func(e Expr) {
		if _, ok := e.(*Param); ok {
			n++
		}
	})
	return n
}

// runtimeConst reports whether the expression evaluates to the same value
// for every row of one execution: no column references (parameters are fine,
// they are fixed per execution).
func runtimeConst(e Expr) bool {
	hasCol := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*ColRef); ok {
			hasCol = true
		}
	})
	return !hasCol
}

// usableEqIndex reports whether `col = v` on tbl can be answered by a point
// lookup (single-column PK or single-column secondary index — the lookupEq
// contract), returning the index display name and whether it is unique.
func usableEqIndex(tbl *Table, col int) (name string, unique, ok bool) {
	if len(tbl.pkCols) == 1 && tbl.pkCols[0] == col {
		return "PRIMARY", true, true
	}
	for _, ix := range tbl.indexes {
		if len(ix.Cols) == 1 && ix.Cols[0] == col {
			return ix.Name, ix.Unique, true
		}
	}
	return "", false, false
}

// planBuilder carries state while constructing one plan. args is set only
// for write plans, which are built per execution: cached read plans must
// not depend on one execution's arguments.
type planBuilder struct {
	e      *Engine
	s      *Session
	st     *SelectStmt
	p      *Plan
	args   []Value
	nextID int
}

func (b *planBuilder) newNode(kind opKind) *planNode {
	n := &planNode{id: b.nextID, kind: kind, eqCol: -1}
	b.nextID++
	b.p.nodes = append(b.p.nodes, n)
	return n
}

// buildPlanLocked constructs a plan for st. Engine lock held: table
// resolution, statistics refresh and cost estimation all read catalog state.
func (e *Engine) buildPlanLocked(s *Session, st *SelectStmt, naive bool) (*Plan, error) {
	p := &Plan{
		db:      strings.ToLower(s.db),
		norm:    st.normKey(),
		naive:   naive,
		stmt:    st,
		topN:    -1,
		nparams: countParams(st),
	}
	b := &planBuilder{e: e, s: s, st: st, p: p}

	if st.From == nil {
		// Table-less SELECT: a lone projection evaluated once.
		proj := b.newNode(opProject)
		proj.detail = projectDetail(st)
		proj.estRows = 1
		p.tail = []*planNode{proj}
		p.epoch = e.statsEpoch
		return p, nil
	}

	if err := b.resolveTables(); err != nil {
		return nil, err
	}
	if !naive {
		// Cost mode plans against fresh statistics; refresh before costing
		// so the epoch recorded below covers any re-ANALYZE done here.
		for _, pt := range p.tables {
			e.refreshStatsLocked(pt.tbl)
		}
	}
	b.buildAccess()
	b.buildTail()
	p.totalCost = 0
	for _, n := range p.nodes {
		if n.hasCost() {
			p.totalCost += n.estCost
		}
	}
	p.epoch = e.statsEpoch
	return p, nil
}

// planWriteLocked plans the target rows of an UPDATE or DELETE with the same
// single-table access a SELECT over ref would get: the driving access plus
// the WHERE as filters, chosen by cost or, under NaivePlan, by the naive
// rule. A write plan has no tail and is built per execution, never cached —
// a write plan may use the execution's args, so the estimate for `col > ?`
// is the one the literal form `col > 5` gets, on the master and on a
// replica replaying the lifted text alike. It also never refreshes
// statistics: a re-ANALYZE advances the stats epoch, and letting writes do
// that would re-plan cached reads at different moments.
func (e *Engine) planWriteLocked(s *Session, ref TableRef, where Expr, args []Value) (*Plan, error) {
	st := &SelectStmt{From: &ref, Where: where}
	b := &planBuilder{e: e, s: s, st: st, p: &Plan{naive: e.NaivePlan, stmt: st, topN: -1}, args: args}
	if err := b.resolveTables(); err != nil {
		return nil, err
	}
	b.buildAccess()
	return b.p, nil
}

// resolveTables binds the scope tables in syntax order — jrow slots and
// column resolution never depend on join order.
func (b *planBuilder) resolveTables() error {
	st := b.st
	refs := make([]TableRef, 0, 1+len(st.Joins))
	refs = append(refs, *st.From)
	for _, j := range st.Joins {
		refs = append(refs, j.Table)
	}
	for _, r := range refs {
		_, tbl, err := b.s.resolveTable(r)
		if err != nil {
			return err
		}
		b.p.tables = append(b.p.tables, planTable{
			display: r.refName(),
			lower:   strings.ToLower(r.refName()),
			tbl:     tbl,
		})
	}
	return nil
}

// buildAccess builds the relational chain (driving access, joins, residual
// filter) in the plan's mode.
func (b *planBuilder) buildAccess() {
	if b.p.naive {
		b.buildNaiveAccess()
		return
	}
	for _, j := range b.st.Joins {
		if j.Left {
			b.buildCostSyntaxOrder()
			return
		}
	}
	b.buildCostReorder()
}

// ---------------------------------------------------------------------------
// Estimation helpers

// rowsOf returns the live row count as a float with a floor of 0.
func rowsOf(t *Table) float64 { return float64(len(t.rows)) }

// eqBucketEst estimates rows returned by an index point lookup.
func eqBucketEst(t *Table, col int, unique bool) float64 {
	if unique {
		return 1
	}
	n := len(t.rows)
	ndv := t.stats.ndvOf(col, n)
	if ndv < 1 {
		ndv = 1
	}
	est := float64(n) / float64(ndv)
	if est < 1 && n > 0 {
		est = 1
	}
	return est
}

// colOf resolves expr to a column position on slot `slot`, considering both
// qualified refs naming the slot and bare refs uniquely owned by it.
func (b *planBuilder) colOf(expr Expr, slot int) (int, bool) {
	c, ok := expr.(*ColRef)
	if !ok {
		return 0, false
	}
	pt := b.p.tables[slot]
	if c.Table != "" {
		if strings.ToLower(c.Table) != pt.lower {
			return 0, false
		}
		pos, ok := pt.tbl.ColPos(c.Name)
		return pos, ok
	}
	// Bare column: it belongs to this slot only if no other table has it.
	owner, pos := -1, 0
	for i, t := range b.p.tables {
		if p, ok := t.tbl.ColPos(c.Name); ok {
			if owner >= 0 {
				return 0, false // ambiguous
			}
			owner, pos = i, p
		}
	}
	return pos, owner == slot
}

// refMaskOf computes which scope slots an expression references. ok is false
// when any reference cannot be resolved (unknown table/column, or an
// ambiguous bare column) — such conjuncts stay at the top filter so runtime
// errors surface exactly as the naive executor would surface them.
func (b *planBuilder) refMaskOf(expr Expr) (mask uint64, ok bool) {
	ok = true
	walkExpr(expr, func(x Expr) {
		c, isCol := x.(*ColRef)
		if !isCol || !ok {
			return
		}
		if c.Table != "" {
			lt := strings.ToLower(c.Table)
			for i, t := range b.p.tables {
				if t.lower == lt {
					if _, has := t.tbl.ColPos(c.Name); !has {
						ok = false
						return
					}
					mask |= 1 << uint(i)
					return
				}
			}
			ok = false
			return
		}
		owner := -1
		for i, t := range b.p.tables {
			if _, has := t.tbl.ColPos(c.Name); has {
				if owner >= 0 {
					ok = false
					return
				}
				owner = i
			}
		}
		if owner < 0 {
			ok = false
			return
		}
		mask |= 1 << uint(owner)
	})
	return mask, ok
}

// selOf estimates the fraction of rows a single-table conjunct keeps. slot
// is the table the conjunct applies to.
func (b *planBuilder) selOf(c Expr, slot int) float64 {
	t := b.p.tables[slot].tbl
	ts := &t.stats
	switch x := c.(type) {
	case *Binary:
		col, colOK := b.colOf(x.L, slot)
		other := x.R
		op := x.Op
		if !colOK {
			col, colOK = b.colOf(x.R, slot)
			other = x.L
			op = flipCmp(op)
		}
		if !colOK || !runtimeConst(other) {
			return defaultSel
		}
		switch op {
		case "=":
			return 1 / float64(ts.ndvOf(col, len(t.rows)))
		case "!=", "<>":
			return 1 - 1/float64(ts.ndvOf(col, len(t.rows)))
		case "<", "<=", ">", ">=":
			if v, isConst := b.constOf(other); isConst && col < len(ts.cols) {
				return ts.cols[col].rangeFraction(op, v)
			}
			return defaultRangeSel
		}
		return defaultSel
	case *InExpr:
		col, colOK := b.colOf(x.X, slot)
		if !colOK {
			return defaultSel
		}
		f := float64(len(x.List)) / float64(ts.ndvOf(col, len(t.rows)))
		if f > 1 {
			f = 1
		}
		if x.Not {
			return 1 - f
		}
		return f
	case *IsNullExpr:
		if x.Not {
			return 1 - defaultIsNullSel
		}
		return defaultIsNullSel
	case *LikeExpr:
		return defaultLikeSel
	case *BetweenExpr:
		return defaultBetweenSel
	}
	return defaultSel
}

// constOf returns the value of a literal, or of a ? placeholder when the
// plan is built for one execution's args (write plans).
func (b *planBuilder) constOf(e Expr) (Value, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.V, true
	case *Param:
		if x.Index < len(b.args) {
			return b.args[x.Index], true
		}
	}
	return Null, false
}

// flipCmp mirrors a comparison operator for the swapped-operand orientation.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// kindClass groups value kinds by hash-key compatibility: within one class,
// Value.appendKey equality coincides with Compare equality, so a hash join
// finds exactly the matches a nested loop would.
type kindClass uint8

const (
	classUnknown kindClass = iota
	classNumeric
	classString
)

func classOfKind(k Kind) kindClass {
	switch k {
	case KindInt, KindFloat, KindBool, KindTime:
		return classNumeric
	case KindString:
		return classString
	}
	return classUnknown
}

// classOfExpr statically classifies an expression's value kind where
// possible: column refs by schema, literals by value.
func (b *planBuilder) classOfExpr(e Expr) kindClass {
	switch x := e.(type) {
	case *ColRef:
		for slot := range b.p.tables {
			if pos, ok := b.colOf(x, slot); ok {
				return classOfKind(b.p.tables[slot].tbl.Columns[pos].Type)
			}
		}
		return classUnknown
	case *Literal:
		return classOfKind(x.V.Kind())
	}
	return classUnknown
}

// ---------------------------------------------------------------------------
// Naive mode — parity with the pre-planner executor

// buildNaiveAccess builds the pre-planner executor's shape: naiveDriving on
// the driving table, syntax-order joins with per-join index lookups, whole
// WHERE evaluated after all joins.
func (b *planBuilder) buildNaiveAccess() {
	st, p := b.st, b.p

	drive := b.naiveDriving()
	chain := drive
	outEst := drive.estRows
	for ji, j := range st.Joins {
		slot := ji + 1
		jt := p.tables[slot].tbl
		eqCol, eqExpr := joinEqPattern(j.On, p.tables[slot].lower, jt)
		var n *planNode
		if eqCol >= 0 {
			if name, unique, usable := usableEqIndex(jt, eqCol); usable {
				n = b.newNode(opINLJoin)
				n.eqCol, n.eqExpr, n.idxName = eqCol, eqExpr, name
				n.estCost = outEst * eqBucketEst(jt, eqCol, unique)
			}
		}
		if n == nil {
			n = b.newNode(opNLJoin)
			n.estCost = outEst * rowsOf(jt)
		}
		n.slot, n.tbl, n.left = slot, jt, j.Left
		// The whole ON expression as a single filter reproduces the legacy
		// executor's evaluation (including three-valued AND order) exactly.
		n.filters = []Expr{j.On}
		n.input = chain
		mpo := rowsOf(jt)
		for _, c := range conjuncts(j.On) {
			mpo *= joinFilterSel(b, c, slot)
		}
		out := outEst * mpo
		if j.Left && out < outEst {
			out = outEst
		}
		n.estRows = out
		n.detail = joinDetail(p.tables[slot].display, n)
		chain = n
		outEst = out
	}
	if st.Where != nil {
		f := b.newNode(opFilter)
		f.filters = []Expr{st.Where} // single-expression: legacy evaluation order
		f.input = chain
		sel := 1.0
		for _, c := range conjuncts(st.Where) {
			sel *= b.whereSel(c)
		}
		f.estRows = outEst * sel
		f.detail = strings.TrimPrefix(renderFilters(f.filters), " filter ")
		chain = f
	}
	p.root = chain
}

// naiveDriving is the pre-planner access rule: the first WHERE conjunct that
// is `col = const` over an indexed driving-table column wins, else a scan.
func (b *planBuilder) naiveDriving() *planNode {
	st, p := b.st, b.p
	tbl := p.tables[0].tbl
	ref := p.tables[0].lower
	for _, c := range conjuncts(st.Where) {
		bin, ok := c.(*Binary)
		if !ok || bin.Op != "=" {
			continue
		}
		for _, try := range [2][2]Expr{{bin.L, bin.R}, {bin.R, bin.L}} {
			col, ok := try[0].(*ColRef)
			if !ok {
				continue
			}
			if col.Table != "" && strings.ToLower(col.Table) != ref {
				continue
			}
			pos, ok := tbl.ColPos(col.Name)
			if !ok {
				continue
			}
			if !runtimeConst(try[1]) {
				continue
			}
			if name, unique, usable := usableEqIndex(tbl, pos); usable {
				n := b.newNode(opIndexScan)
				n.slot, n.tbl = 0, tbl
				n.eqCol, n.eqExpr, n.idxName = pos, try[1], name
				n.estCost = eqBucketEst(tbl, pos, unique)
				n.estRows = n.estCost
				n.detail = accessDetail(p.tables[0].display, n)
				return n
			}
		}
	}
	n := b.newNode(opScan)
	n.slot, n.tbl = 0, tbl
	n.estCost = rowsOf(tbl)
	n.estRows = n.estCost
	n.detail = accessDetail(p.tables[0].display, n)
	return n
}

// whereSel estimates a WHERE conjunct's selectivity: single-table conjuncts
// use column statistics, everything else the default.
func (b *planBuilder) whereSel(c Expr) float64 {
	mask, ok := b.refMaskOf(c)
	if !ok || mask == 0 || mask&(mask-1) != 0 {
		return defaultSel
	}
	slot := 0
	for mask>>uint(slot+1) != 0 {
		slot++
	}
	return b.selOf(c, slot)
}

// joinFilterSel estimates one ON conjunct's match fraction against the join
// table: equality against the join column contributes 1/NDV, the rest use
// single-table or default selectivities.
func joinFilterSel(b *planBuilder, c Expr, slot int) float64 {
	if bin, ok := c.(*Binary); ok && bin.Op == "=" {
		for _, try := range [2]Expr{bin.L, bin.R} {
			if col, ok := b.colOf(try, slot); ok {
				t := b.p.tables[slot].tbl
				return 1 / float64(t.stats.ndvOf(col, len(t.rows)))
			}
		}
	}
	return b.whereSel(c)
}

// ---------------------------------------------------------------------------
// Cost mode

// pooledConjunct tracks one predicate through placement.
type pooledConjunct struct {
	expr Expr
	mask uint64
	ok   bool // resolvable (eligible for pushdown)
	used bool // attached to some node already
}

// pool collects conjuncts with their reference masks.
func (b *planBuilder) pool(exprs []Expr) []*pooledConjunct {
	out := make([]*pooledConjunct, 0, len(exprs))
	for _, e := range exprs {
		mask, ok := b.refMaskOf(e)
		out = append(out, &pooledConjunct{expr: e, mask: mask, ok: ok})
	}
	return out
}

// attach collects every unused resolvable conjunct whose references are
// covered by bound, marking them used. Order follows the pool (WHERE first,
// then ON clauses in syntax order) for deterministic plans.
func attach(pool []*pooledConjunct, bound uint64) []Expr {
	var out []Expr
	for _, pc := range pool {
		if pc.used || !pc.ok || pc.mask&^bound != 0 {
			continue
		}
		pc.used = true
		out = append(out, pc.expr)
	}
	return out
}

// eqCandidate is a potential equality lookup: slot.col = expr(bound).
type eqCandidate struct {
	pc     *pooledConjunct
	col    int
	expr   Expr // outer-side key expression
	rlSafe bool // hash-key classes compatible
}

// eqCandidatesFor finds equality conjuncts usable to join `slot` to the
// bound set (driving access passes bound = 0 and runtime-const other sides).
func (b *planBuilder) eqCandidatesFor(pool []*pooledConjunct, slot int, bound uint64) []eqCandidate {
	var out []eqCandidate
	slotBit := uint64(1) << uint(slot)
	for _, pc := range pool {
		if pc.used || !pc.ok {
			continue
		}
		bin, isBin := pc.expr.(*Binary)
		if !isBin || bin.Op != "=" {
			continue
		}
		for _, try := range [2][2]Expr{{bin.L, bin.R}, {bin.R, bin.L}} {
			col, ok := b.colOf(try[0], slot)
			if !ok {
				continue
			}
			otherMask, otherOK := b.refMaskOf(try[1])
			if !otherOK || otherMask&slotBit != 0 || otherMask&^bound != 0 {
				continue
			}
			innerClass := classOfKind(b.p.tables[slot].tbl.Columns[col].Type)
			outerClass := b.classOfExpr(try[1])
			out = append(out, eqCandidate{
				pc:     pc,
				col:    col,
				expr:   try[1],
				rlSafe: innerClass != classUnknown && innerClass == outerClass,
			})
			break
		}
	}
	return out
}

// accessChoice is one scored way to bring a table into the pipeline.
type accessChoice struct {
	slot    int
	kind    opKind
	eqCol   int
	eqExpr  Expr
	idxName string
	eqPC    *pooledConjunct // lookup conjunct (excluded from selectivity product)
	cost    float64         // estimated rows examined by this step
	outRows float64         // estimated pipeline output after this step
}

// drivingChoice scores the best access for slot as the driving table.
func (b *planBuilder) drivingChoice(pool []*pooledConjunct, slot int) accessChoice {
	t := b.p.tables[slot].tbl
	best := accessChoice{slot: slot, kind: opScan, eqCol: -1, cost: rowsOf(t)}
	for _, cand := range b.eqCandidatesFor(pool, slot, 0) {
		name, unique, usable := usableEqIndex(t, cand.col)
		if !usable {
			continue
		}
		cost := eqBucketEst(t, cand.col, unique)
		if cost < best.cost {
			best = accessChoice{slot: slot, kind: opIndexScan, eqCol: cand.col,
				eqExpr: cand.expr, idxName: name, eqPC: cand.pc, cost: cost}
		}
	}
	// Output estimate: examined rows filtered by the remaining single-table
	// conjuncts (the lookup conjunct's selectivity is the bucket itself).
	out := best.cost
	slotBit := uint64(1) << uint(slot)
	for _, pc := range pool {
		if pc.used || !pc.ok || pc.mask&^slotBit != 0 || pc == best.eqPC {
			continue
		}
		out *= b.selOf(pc.expr, slot)
	}
	best.outRows = out
	return best
}

// joinChoices scores every way to join `slot` onto the bound pipeline.
func (b *planBuilder) joinChoices(pool []*pooledConjunct, slot int, bound uint64, outEst float64) []accessChoice {
	t := b.p.tables[slot].tbl
	rows := rowsOf(t)
	newBound := bound | 1<<uint(slot)

	// Expected matches per outer row across all conjuncts that become
	// evaluable here — the output cardinality, independent of algorithm.
	mpoAll := rows
	var lookupPCs []*pooledConjunct
	cands := b.eqCandidatesFor(pool, slot, bound)
	for _, pc := range pool {
		if pc.used || !pc.ok || pc.mask&^newBound != 0 || pc.mask&(1<<uint(slot)) == 0 {
			continue
		}
		isEq := false
		for _, c := range cands {
			if c.pc == pc {
				isEq = true
				break
			}
		}
		if isEq {
			mpoAll *= 1 / float64(t.stats.ndvOf(eqColOf(cands, pc), len(t.rows)))
			lookupPCs = append(lookupPCs, pc)
		} else if pc.mask == 1<<uint(slot) {
			mpoAll *= b.selOf(pc.expr, slot)
		} else {
			mpoAll *= defaultSel
		}
	}
	_ = lookupPCs
	out := outEst * mpoAll

	var choices []accessChoice
	for _, cand := range cands {
		bucket := rows / float64(t.stats.ndvOf(cand.col, len(t.rows)))
		if bucket < 1 {
			bucket = 1
		}
		if name, unique, usable := usableEqIndex(t, cand.col); usable {
			bk := bucket
			if unique {
				bk = 1
			}
			choices = append(choices, accessChoice{
				slot: slot, kind: opINLJoin, eqCol: cand.col, eqExpr: cand.expr,
				idxName: name, eqPC: cand.pc,
				cost:    outEst * (probePenalty + bk),
				outRows: out,
			})
		}
		if cand.rlSafe {
			choices = append(choices, accessChoice{
				slot: slot, kind: opHashJoin, eqCol: cand.col, eqExpr: cand.expr,
				eqPC: cand.pc,
				cost: rows + outEst*bucket, outRows: out,
			})
		}
	}
	choices = append(choices, accessChoice{
		slot: slot, kind: opNLJoin, eqCol: -1,
		cost: outEst * rows, outRows: out,
	})
	return choices
}

// eqColOf finds the inner column of the candidate backed by pc.
func eqColOf(cands []eqCandidate, pc *pooledConjunct) int {
	for _, c := range cands {
		if c.pc == pc {
			return c.col
		}
	}
	return -1
}

// buildCostReorder is the inner-join-only path: pooled predicates, greedy
// join order, per-join algorithm choice.
func (b *planBuilder) buildCostReorder() {
	st, p := b.st, b.p
	exprs := conjuncts(st.Where)
	for _, j := range st.Joins {
		exprs = append(exprs, conjuncts(j.On)...)
	}
	pool := b.pool(exprs)

	nt := len(p.tables)
	var chain *planNode
	var bound uint64
	outEst := 0.0

	for step := 0; step < nt; step++ {
		var best accessChoice
		haveBest := false
		if chain == nil {
			for slot := 0; slot < nt; slot++ {
				c := b.drivingChoice(pool, slot)
				if !haveBest || c.cost < best.cost {
					best, haveBest = c, true
				}
			}
		} else {
			for slot := 0; slot < nt; slot++ {
				if bound&(1<<uint(slot)) != 0 {
					continue
				}
				for _, c := range b.joinChoices(pool, slot, bound, outEst) {
					if !haveBest || c.cost < best.cost {
						best, haveBest = c, true
					}
				}
			}
		}

		slotBit := uint64(1) << uint(best.slot)
		bound |= slotBit
		pt := p.tables[best.slot]
		n := b.newNode(best.kind)
		n.slot, n.tbl = best.slot, pt.tbl
		n.eqCol, n.eqExpr, n.idxName = best.eqCol, best.eqExpr, best.idxName
		n.input = chain
		// The lookup conjunct stays in the filter list as a recheck (exact
		// under MVCC scan degradation); it just doesn't count twice in the
		// estimates above.
		n.filters = attach(pool, bound)
		n.estCost = best.cost
		n.estRows = best.outRows
		if chain == nil {
			n.detail = accessDetail(pt.display, n)
		} else {
			n.detail = joinDetail(pt.display, n)
		}
		chain = n
		outEst = best.outRows
	}

	// Conjuncts that never became attachable (unresolvable references) are
	// evaluated after all joins, where the naive executor would evaluate
	// them — runtime errors surface identically.
	var residual []Expr
	for _, pc := range pool {
		if !pc.used {
			residual = append(residual, pc.expr)
		}
	}
	if len(residual) > 0 {
		f := b.newNode(opFilter)
		f.filters = residual
		f.input = chain
		f.estRows = outEst * defaultSel
		f.detail = strings.TrimPrefix(renderFilters(residual), " filter ")
		chain = f
	}
	p.root = chain
}

// buildCostSyntaxOrder handles queries with LEFT joins: syntax order, ON
// conjuncts at their join, driving-only WHERE conjuncts pushed to the scan,
// everything else in the post-join filter. Join algorithms are still chosen
// by cost.
func (b *planBuilder) buildCostSyntaxOrder() {
	st, p := b.st, b.p
	wherePool := b.pool(conjuncts(st.Where))

	// Driving access from driving-only WHERE conjuncts.
	drive := b.drivingChoice(wherePool, 0)
	dn := b.newNode(drive.kind)
	dn.slot, dn.tbl = 0, p.tables[0].tbl
	dn.eqCol, dn.eqExpr, dn.idxName = drive.eqCol, drive.eqExpr, drive.idxName
	dn.filters = attach(wherePool, 1)
	dn.estCost = drive.cost
	dn.estRows = drive.outRows
	dn.detail = accessDetail(p.tables[0].display, dn)

	chain := dn
	outEst := dn.estRows
	bound := uint64(1)
	for ji, j := range st.Joins {
		slot := ji + 1
		onPool := b.pool(conjuncts(j.On))
		var best accessChoice
		haveBest := false
		for _, c := range b.joinChoices(onPool, slot, bound, outEst) {
			if !haveBest || c.cost < best.cost {
				best, haveBest = c, true
			}
		}
		bound |= 1 << uint(slot)
		n := b.newNode(best.kind)
		n.slot, n.tbl = slot, p.tables[slot].tbl
		n.eqCol, n.eqExpr, n.idxName = best.eqCol, best.eqExpr, best.idxName
		n.left = j.Left
		// Every ON conjunct is evaluated at the join, resolvable or not —
		// LEFT join semantics require the full ON to decide matches.
		n.filters = conjuncts(j.On)
		n.input = chain
		n.estCost = best.cost
		out := best.outRows
		if j.Left && out < outEst {
			out = outEst
		}
		n.estRows = out
		n.detail = joinDetail(p.tables[slot].display, n)
		chain = n
		outEst = out
	}

	var residual []Expr
	for _, pc := range wherePool {
		if !pc.used {
			residual = append(residual, pc.expr)
		}
	}
	if len(residual) > 0 {
		f := b.newNode(opFilter)
		f.filters = residual
		f.input = chain
		sel := 1.0
		for _, c := range residual {
			sel *= b.whereSel(c)
		}
		f.estRows = outEst * sel
		f.detail = strings.TrimPrefix(renderFilters(residual), " filter ")
		chain = f
	}
	p.root = chain
}

// ---------------------------------------------------------------------------
// Tail (projection / aggregation / order / limit)

// buildTail appends the presentation operators above the relational root,
// outermost first, and fixes the top-N bound when the bounded sort applies.
func (b *planBuilder) buildTail() {
	st, p := b.st, b.p
	outEst := 1.0
	if p.root != nil {
		outEst = p.root.estRows
	}

	aggregated := len(st.GroupBy) > 0
	for _, se := range st.Exprs {
		if !se.Star && containsAggregate(se.Expr) {
			aggregated = true
		}
	}

	var tail []*planNode // built innermost-first, reversed at the end

	if aggregated {
		agg := b.newNode(opHashAgg)
		var d strings.Builder
		if len(st.GroupBy) > 0 {
			d.WriteString("group_by=(")
			d.WriteString(exprList(st.GroupBy))
			d.WriteByte(')')
		} else {
			d.WriteString("global")
		}
		if st.Having != nil {
			d.WriteString(" having (")
			d.WriteString(st.Having.String())
			d.WriteByte(')')
		}
		agg.detail = d.String()
		if len(st.GroupBy) == 0 {
			agg.estRows = 1
		} else {
			agg.estRows = estGroups(b, outEst)
		}
		outEst = agg.estRows
		tail = append(tail, agg)
	} else {
		proj := b.newNode(opProject)
		proj.detail = projectDetail(st)
		proj.estRows = outEst
		tail = append(tail, proj)
	}

	if len(st.OrderBy) > 0 {
		if bound, ok := staticTopNBound(st); ok && !aggregated {
			top := b.newNode(opTopN)
			top.detail = orderDetail(st) + " limit " + estInt(float64(bound))
			if f := float64(bound); f < outEst {
				outEst = f
			}
			top.estRows = outEst
			p.topN = bound
			tail = append(tail, top)
		} else {
			srt := b.newNode(opSort)
			srt.detail = orderDetail(st)
			srt.estRows = outEst
			tail = append(tail, srt)
		}
	}

	if st.Distinct {
		d := b.newNode(opDistinct)
		d.estRows = outEst
		tail = append(tail, d)
	}

	if st.Limit != nil || st.Offset != nil {
		lim := b.newNode(opLimit)
		var d strings.Builder
		if st.Limit != nil {
			d.WriteString(st.Limit.String())
			if lv, isLit := st.Limit.(*Literal); isLit {
				if f := float64(lv.V.Int()); f < outEst {
					outEst = f
				}
			}
		} else {
			d.WriteString("all")
		}
		if st.Offset != nil {
			d.WriteString(" offset ")
			d.WriteString(st.Offset.String())
		}
		lim.detail = d.String()
		lim.estRows = outEst
		tail = append(tail, lim)
	}

	// Reverse: p.tail is outermost-first.
	p.tail = make([]*planNode, 0, len(tail))
	for i := len(tail) - 1; i >= 0; i-- {
		p.tail = append(p.tail, tail[i])
	}
}

// staticTopNBound decides the bounded sort: ORDER BY with literal
// LIMIT/OFFSET, no DISTINCT (which dedups before the limit) and no SELECT
// alias in play (aliases force projection-first evaluation). A parameterized
// LIMIT takes the full sort; the results are the same.
func staticTopNBound(st *SelectStmt) (int, bool) {
	if len(st.OrderBy) == 0 || st.Distinct || st.Limit == nil || aliasMapFor(st) != nil {
		return 0, false
	}
	lv, ok := st.Limit.(*Literal)
	if !ok {
		return 0, false
	}
	n := int(lv.V.Int())
	if st.Offset != nil {
		ov, ok := st.Offset.(*Literal)
		if !ok {
			return 0, false
		}
		n += int(ov.V.Int())
	}
	if n < 0 {
		return 0, false
	}
	return n, true
}

// estGroups estimates distinct groups: the product of group-column NDVs when
// all keys are plain column refs, else a fixed fraction of the input.
func estGroups(b *planBuilder, outEst float64) float64 {
	prod := 1.0
	for _, g := range b.st.GroupBy {
		hit := false
		for slot := range b.p.tables {
			if col, ok := b.colOf(g, slot); ok {
				t := b.p.tables[slot].tbl
				prod *= float64(t.stats.ndvOf(col, len(t.rows)))
				hit = true
				break
			}
		}
		if !hit {
			prod *= 8 // opaque key expression: assume moderate fan-out
		}
	}
	if prod > outEst {
		prod = outEst
	}
	if prod < 1 {
		prod = 1
	}
	return prod
}

// ---------------------------------------------------------------------------
// Detail rendering

func accessDetail(display string, n *planNode) string {
	var b strings.Builder
	b.WriteString(display)
	if n.kind == opIndexScan {
		b.WriteString(" via ")
		b.WriteString(n.idxName)
		b.WriteString(" on (")
		b.WriteString(n.tbl.Columns[n.eqCol].Name)
		b.WriteString(" = ")
		b.WriteString(n.eqExpr.String())
		b.WriteByte(')')
	}
	b.WriteString(renderFilters(n.filters))
	return b.String()
}

func joinDetail(display string, n *planNode) string {
	var b strings.Builder
	if n.left {
		b.WriteString("left ")
	}
	b.WriteString(display)
	if n.eqCol >= 0 && n.eqExpr != nil {
		if n.idxName != "" {
			b.WriteString(" via ")
			b.WriteString(n.idxName)
		}
		b.WriteString(" on (")
		b.WriteString(n.tbl.Columns[n.eqCol].Name)
		b.WriteString(" = ")
		b.WriteString(n.eqExpr.String())
		b.WriteByte(')')
	}
	b.WriteString(renderFilters(n.filters))
	return b.String()
}

func projectDetail(st *SelectStmt) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, se := range st.Exprs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(se.String())
	}
	b.WriteByte(')')
	return b.String()
}

func orderDetail(st *SelectStmt) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, o := range st.OrderBy {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(o.String())
	}
	b.WriteByte(')')
	return b.String()
}

// checkArgCount is the one argument-count check of every execution path.
func checkArgCount(nparams int, args []Value) error {
	if len(args) != nparams {
		return fmt.Errorf("sqlengine: statement has %d parameters but %d arguments given", nparams, len(args))
	}
	return nil
}
