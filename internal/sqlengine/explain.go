package sqlengine

import (
	"fmt"
	"strconv"
)

// ExplainStmt is EXPLAIN [ANALYZE] <statement>. Plain EXPLAIN renders the
// plan the planner would choose without executing the statement; EXPLAIN
// ANALYZE executes it and annotates every operator with its actual output
// row count.
type ExplainStmt struct {
	Inner   Stmt
	Analyze bool
}

func (s *ExplainStmt) String() string { return renderSQL(s, nil, 0) }
func (*ExplainStmt) stmt()            {}

// execExplain renders the plan tree for the inner statement: a single "plan"
// column, one operator per row, in the byte-deterministic format documented
// on planNode.line — the A-PLAN decision log and the EXPLAIN golden test
// both pin it. SELECT renders its whole plan; UPDATE and DELETE render the
// driving access of their write plan in the same operator vocabulary.
func (e *Engine) execExplain(s *Session, st *ExplainStmt, args []Value) (*Result, error) {
	var lines []string
	switch inner := st.Inner.(type) {
	case *SelectStmt:
		p, err := e.planSelectLocked(s, inner)
		if err != nil {
			return nil, err
		}
		var acts []int64
		if st.Analyze {
			acts = make([]int64, len(p.nodes))
			if _, err := e.execPlan(s, p, args, acts); err != nil {
				return nil, err
			}
		}
		lines = p.Lines(acts)
	case *UpdateStmt:
		line, err := e.explainWriteLocked(s, inner.Table, inner.Where, "update")
		if err != nil {
			return nil, err
		}
		lines = []string{line}
	case *DeleteStmt:
		line, err := e.explainWriteLocked(s, inner.Table, inner.Where, "delete")
		if err != nil {
			return nil, err
		}
		lines = []string{line}
	default:
		return nil, fmt.Errorf("sqlengine: cannot EXPLAIN %T", st.Inner)
	}

	set := &ResultSet{Columns: []string{"plan"}}
	for _, l := range lines {
		set.Rows = append(set.Rows, []Value{NewString(l)})
	}
	return &Result{Set: set, Stats: ExecStats{Class: ClassRead, RowsReturned: len(set.Rows)}, SQL: st.String()}, nil
}

// explainWriteLocked renders the driving access of an UPDATE/DELETE's write
// plan — the access the write executes — as one plan line carrying the
// whole WHERE as its filter.
func (e *Engine) explainWriteLocked(s *Session, ref TableRef, where Expr, verb string) (string, error) {
	p, err := e.planWriteLocked(s, ref, where, nil)
	if err != nil {
		return "", err
	}
	drive := p.root
	if drive.kind == opFilter {
		drive = drive.input
	}
	access := *drive
	access.filters = nil
	line := drive.kind.String() + " " + accessDetail(p.tables[0].display, &access)
	if where != nil {
		line += " filter (" + where.String() + ")"
	}
	est := strconv.Itoa(int(drive.estCost))
	return line + " (" + verb + " est=" + est + " cost=" + est + ")", nil
}
