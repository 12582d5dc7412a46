package sqlengine

import (
	"fmt"
	"strings"
)

// scopeTable is one table visible to expression evaluation, with the
// current row's values (nil for a LEFT JOIN miss: all columns read NULL).
type scopeTable struct {
	name string // ref name (alias or table name), lower-case
	tbl  *Table
	vals []Value
}

// scope is the row context for evaluating expressions. args carries the
// statement's positional arguments: every statement executes as its
// parameterized AST, so a ? resolves here, for reads and writes alike.
type scope struct {
	tables []scopeTable
	eng    *Engine
	args   []Value
}

// resolve finds the value for a column reference, memoizing the column
// position on the ColRef node (see its cache fields). Ambiguity checking
// across multi-table scopes stays on the uncached slow path.
func (sc *scope) resolve(c *ColRef) (Value, error) {
	if c.Table != "" {
		if c.lname == "" {
			c.lname = strings.ToLower(c.Table)
		}
		for i := range sc.tables {
			st := &sc.tables[i]
			if st.name != c.lname {
				continue
			}
			if st.tbl != c.ctbl {
				pos, ok := st.tbl.ColPos(c.Name)
				if !ok {
					return Null, fmt.Errorf("sqlengine: unknown column %s.%s", c.Table, c.Name)
				}
				c.ctbl, c.cpos = st.tbl, pos
			}
			if st.vals == nil {
				return Null, nil
			}
			return st.vals[c.cpos], nil
		}
		return Null, fmt.Errorf("sqlengine: unknown table %s in expression", c.Table)
	}
	if len(sc.tables) == 1 {
		st := &sc.tables[0]
		if st.tbl != c.ctbl {
			pos, ok := st.tbl.ColPos(c.Name)
			if !ok {
				return Null, fmt.Errorf("sqlengine: unknown column %s", c.Name)
			}
			c.ctbl, c.cpos = st.tbl, pos
		}
		if st.vals == nil {
			return Null, nil
		}
		return st.vals[c.cpos], nil
	}
	found := -1
	var out Value
	for _, st := range sc.tables {
		if pos, ok := st.tbl.ColPos(c.Name); ok {
			if found >= 0 {
				return Null, fmt.Errorf("sqlengine: ambiguous column %s", c.Name)
			}
			found = pos
			if st.vals == nil {
				out = Null
			} else {
				out = st.vals[pos]
			}
		}
	}
	if found < 0 {
		return Null, fmt.Errorf("sqlengine: unknown column %s", c.Name)
	}
	return out, nil
}

// eval evaluates a scalar expression in the row scope. Aggregate calls are
// rejected here; the aggregate path evaluates them over groups.
func (sc *scope) eval(e Expr) (Value, error) {
	switch e := e.(type) {
	case *Literal:
		return e.V, nil
	case *Param:
		if e.Index < len(sc.args) {
			return sc.args[e.Index], nil
		}
		return Null, fmt.Errorf("sqlengine: unbound parameter")
	case *ColRef:
		return sc.resolve(e)
	case *Unary:
		x, err := sc.eval(e.X)
		if err != nil {
			return Null, err
		}
		if e.Op == "NOT" {
			if x.IsNull() {
				return Null, nil
			}
			return NewBool(!x.Bool()), nil
		}
		switch x.Kind() {
		case KindFloat:
			return NewFloat(-x.Float()), nil
		case KindNull:
			return Null, nil
		default:
			return NewInt(-x.Int()), nil
		}
	case *Binary:
		return sc.evalBinary(e)
	case *FuncCall:
		if isAggregate(e.Name) {
			return Null, fmt.Errorf("sqlengine: aggregate %s not allowed here", e.Name)
		}
		return sc.evalFunc(e)
	case *InExpr:
		x, err := sc.eval(e.X)
		if err != nil {
			return Null, err
		}
		if x.IsNull() {
			return Null, nil
		}
		for _, item := range e.List {
			v, err := sc.eval(item)
			if err != nil {
				return Null, err
			}
			if !v.IsNull() && Compare(x, v) == 0 {
				return NewBool(!e.Not), nil
			}
		}
		return NewBool(e.Not), nil
	case *BetweenExpr:
		x, err := sc.eval(e.X)
		if err != nil {
			return Null, err
		}
		lo, err := sc.eval(e.Lo)
		if err != nil {
			return Null, err
		}
		hi, err := sc.eval(e.Hi)
		if err != nil {
			return Null, err
		}
		if x.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null, nil
		}
		in := Compare(x, lo) >= 0 && Compare(x, hi) <= 0
		return NewBool(in != e.Not), nil
	case *IsNullExpr:
		x, err := sc.eval(e.X)
		if err != nil {
			return Null, err
		}
		return NewBool(x.IsNull() != e.Not), nil
	case *LikeExpr:
		x, err := sc.eval(e.X)
		if err != nil {
			return Null, err
		}
		pat, err := sc.eval(e.Pattern)
		if err != nil {
			return Null, err
		}
		if x.IsNull() || pat.IsNull() {
			return Null, nil
		}
		m := likeMatch(x.String(), pat.String())
		return NewBool(m != e.Not), nil
	default:
		return Null, fmt.Errorf("sqlengine: cannot evaluate %T", e)
	}
}

func (sc *scope) evalBinary(e *Binary) (Value, error) {
	// AND/OR short-circuit with three-valued-ish logic (NULL treated as
	// unknown that only matters when it decides the outcome).
	if e.Op == "AND" {
		l, err := sc.eval(e.L)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && !l.Bool() {
			return NewBool(false), nil
		}
		r, err := sc.eval(e.R)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && !r.Bool() {
			return NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewBool(true), nil
	}
	if e.Op == "OR" {
		l, err := sc.eval(e.L)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && l.Bool() {
			return NewBool(true), nil
		}
		r, err := sc.eval(e.R)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && r.Bool() {
			return NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewBool(false), nil
	}

	l, err := sc.eval(e.L)
	if err != nil {
		return Null, err
	}
	r, err := sc.eval(e.R)
	if err != nil {
		return Null, err
	}
	switch e.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		c := Compare(l, r)
		var out bool
		switch e.Op {
		case "=":
			out = c == 0
		case "!=":
			out = c != 0
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return NewBool(out), nil
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		// String concatenation is spelled CONCAT, not +; arithmetic on
		// strings coerces numerically like MySQL.
		lf, rf := l.Float(), r.Float()
		useFloat := l.Kind() == KindFloat || r.Kind() == KindFloat || e.Op == "/"
		if l.Kind() == KindString || r.Kind() == KindString {
			useFloat = true
		}
		switch e.Op {
		case "+":
			if useFloat {
				return NewFloat(lf + rf), nil
			}
			return NewInt(l.Int() + r.Int()), nil
		case "-":
			if useFloat {
				return NewFloat(lf - rf), nil
			}
			return NewInt(l.Int() - r.Int()), nil
		case "*":
			if useFloat {
				return NewFloat(lf * rf), nil
			}
			return NewInt(l.Int() * r.Int()), nil
		case "/":
			if rf == 0 {
				return Null, nil // MySQL: division by zero yields NULL
			}
			return NewFloat(lf / rf), nil
		case "%":
			if r.Int() == 0 {
				return Null, nil
			}
			return NewInt(l.Int() % r.Int()), nil
		}
	}
	return Null, fmt.Errorf("sqlengine: unknown operator %q", e.Op)
}

func (sc *scope) evalFunc(e *FuncCall) (Value, error) {
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := sc.eval(a)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	return callBuiltin(sc.eng, e.Name, args)
}

// callBuiltin dispatches scalar builtins.
func callBuiltin(eng *Engine, name string, args []Value) (Value, error) {
	argn := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqlengine: %s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "UTC_MICROS", "NOW", "CURRENT_TIMESTAMP", "UTC_TIMESTAMP":
		// Microsecond-resolution local time (the paper's UDF for MySQL Bug
		// #8523). Evaluated against the executing server's own clock.
		return NewTime(eng.NowMicros()), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return Null, nil
			}
			b.WriteString(a.String())
		}
		return NewString(b.String()), nil
	case "LOWER":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToLower(args[0].String())), nil
	case "UPPER":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToUpper(args[0].String())), nil
	case "LENGTH":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewInt(int64(len(args[0].String()))), nil
	case "ABS":
		if err := argn(1); err != nil {
			return Null, err
		}
		v := args[0]
		switch v.Kind() {
		case KindNull:
			return Null, nil
		case KindFloat:
			f := v.Float()
			if f < 0 {
				f = -f
			}
			return NewFloat(f), nil
		default:
			n := v.Int()
			if n < 0 {
				n = -n
			}
			return NewInt(n), nil
		}
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "IF":
		if err := argn(3); err != nil {
			return Null, err
		}
		if !args[0].IsNull() && args[0].Bool() {
			return args[1], nil
		}
		return args[2], nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null, fmt.Errorf("sqlengine: %s expects 2 or 3 arguments", name)
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		s := args[0].String()
		start := int(args[1].Int()) // 1-based
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return NewString(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 {
			if args[2].IsNull() {
				return Null, nil
			}
			n := int(args[2].Int())
			if n < 0 {
				n = 0
			}
			if n < len(out) {
				out = out[:n]
			}
		}
		return NewString(out), nil
	case "MOD":
		if err := argn(2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() || args[1].Int() == 0 {
			return Null, nil
		}
		return NewInt(args[0].Int() % args[1].Int()), nil
	case "FLOOR":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f := args[0].Float()
		n := int64(f)
		if f < 0 && f != float64(n) {
			n--
		}
		return NewInt(n), nil
	case "CEIL", "CEILING":
		if err := argn(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f := args[0].Float()
		n := int64(f)
		if f > 0 && f != float64(n) {
			n++
		}
		return NewInt(n), nil
	default:
		return Null, fmt.Errorf("sqlengine: unknown function %s", name)
	}
}

// isAggregate reports whether name is an aggregate function.
func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}

// containsAggregate reports whether the expression tree contains an
// aggregate call.
func containsAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && isAggregate(f.Name) {
			found = true
		}
	})
	return found
}

// likeMatch implements SQL LIKE with % (any run) and _ (one byte),
// case-insensitively like MySQL's default collation.
func likeMatch(s, pattern string) bool {
	// ASCII inputs fold per byte during the match; allocating two lowered
	// copies here ran once per scanned row on LIKE scans. Non-ASCII falls
	// back to whole-string lowering so multi-byte case mapping (which can
	// change byte lengths) behaves exactly as before; the redundant ASCII
	// fold after it is a no-op on already-lowered bytes.
	if !isASCII(s) || !isASCII(pattern) {
		s = strings.ToLower(s)
		pattern = strings.ToLower(pattern)
	}
	// Greedy two-pointer wildcard match over bytes.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || lowerASCII(pattern[pi]) == lowerASCII(s[si])):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 32
	}
	return c
}
