package sqlengine

import "strconv"

// lifted describes a statement text parameterized by lift. The template
// itself is returned apart, so that a caller's stack buffer holding it does
// not escape along with the argument vector.
type lifted struct {
	args  []Value // the literals' values, in text order
	verb  string  // the statement's leading keyword
	canon bool    // every literal is spelled exactly as Value.SQL renders it
}

// lift replaces every int, float and string literal of a SELECT, INSERT,
// UPDATE or DELETE text (optionally under EXPLAIN) with a ? placeholder in
// one scanner pass, appending the template to buf and returning it as tmpl.
// A minus sign the parser would fold into a numeric literal (a unary minus:
// after an operator, "(", "," or a keyword) goes into the argument with it.
// The template therefore parses to the text's own AST with every Literal
// replaced by a Param whose argument is that literal's value. NULL, TRUE and
// FALSE stay in the template, and so do builtin calls such as UTC_MICROS(),
// which re-evaluate on every execution.
//
// ok is false for texts lift leaves alone: other statement kinds (a DDL
// integer such as VARCHAR(32) is not an expression literal), texts that
// already carry ? placeholders, texts that do not lex, numbers the parser
// would reject, and a unary minus separated from a number by "(" or another
// minus, as in -(5) or - -5, where the fold depends on more than the next
// token.
func lift(sql string, buf []byte) (tmpl []byte, l lifted, ok bool) {
	var stack [16]Value
	args := stack[:0]
	l.canon = true
	sc := scanner{sql: sql}
	last := 0 // sql[:last] is already in the template
	var prev, prev2 token
	inner := "" // the statement keyword under any EXPLAIN [ANALYZE] prefix
	for {
		t, err := sc.next()
		if err != nil {
			return nil, lifted{}, false
		}
		if inner == "" {
			if t.kind != tokKeyword {
				return nil, lifted{}, false
			}
			if l.verb == "" {
				l.verb = t.text
			}
			switch t.text {
			case "EXPLAIN", "ANALYZE":
				prev2, prev = prev, t
				continue
			case "SELECT", "INSERT", "UPDATE", "DELETE":
				inner = t.text
			default:
				return nil, lifted{}, false
			}
		}
		switch t.kind {
		case tokEOF:
			l.args = make([]Value, len(args))
			copy(l.args, args)
			return append(buf, sql[last:]...), l, true
		case tokParam:
			return nil, lifted{}, false
		case tokInt, tokFloat, tokString:
			v, ok := literalValue(t, false)
			if !ok {
				return nil, lifted{}, false
			}
			l.canon = l.canon && spelled(v, sql[t.pos:sc.i])
			buf = append(append(buf, sql[last:t.pos]...), '?')
			last = sc.i
			args = append(args, v)
		case tokSymbol:
			if t.text != "-" || !operandStart(prev, prev2) {
				break
			}
			save := sc.i
			num, err := sc.next()
			if err != nil {
				return nil, lifted{}, false
			}
			if num.kind == tokInt || num.kind == tokFloat {
				v, ok := literalValue(num, true)
				if !ok {
					return nil, lifted{}, false
				}
				l.canon = l.canon && spelled(v, sql[t.pos:sc.i])
				buf = append(append(buf, sql[last:t.pos]...), '?')
				last = sc.i
				args = append(args, v)
				t = num
				break
			}
			// Behind "(" or another sign, a number may still fold into
			// this sign: leave such texts to the plain parse.
			for num.kind == tokSymbol && (num.text == "(" || num.text == "-") {
				if num, err = sc.next(); err != nil {
					return nil, lifted{}, false
				}
			}
			if num.kind == tokInt || num.kind == tokFloat {
				return nil, lifted{}, false
			}
			sc.i = save
		}
		prev2, prev = prev, t
	}
}

// operandStart reports whether the parser expects an operand after prev
// (whose predecessor is prev2), which makes a following minus a unary sign.
// Operands end at a literal, a placeholder, an identifier, a closing
// parenthesis, NULL/TRUE/FALSE, or a keyword used as a column name after
// a qualifying dot.
func operandStart(prev, prev2 token) bool {
	switch prev.kind {
	case tokInt, tokFloat, tokString, tokParam, tokIdent:
		return false
	case tokSymbol:
		return prev.text != ")"
	case tokKeyword:
		switch prev.text {
		case "NULL", "TRUE", "FALSE":
			return false
		}
		return !(prev2.kind == tokSymbol && prev2.text == ".")
	}
	return true
}

// literalValue converts a literal token to its value exactly as the parser
// does, negated when the token carries a folded unary minus.
func literalValue(t token, negate bool) (Value, bool) {
	switch t.kind {
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Null, false
		}
		if negate {
			n = -n
		}
		return NewInt(n), true
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Null, false
		}
		if negate {
			f = -f
		}
		return NewFloat(f), true
	default:
		return NewString(t.text), true
	}
}

// spelled reports whether text is exactly v's rendering (Value.SQL), so a
// text of canonically spelled literals can be logged as it came.
func spelled(v Value, text string) bool {
	var num [32]byte
	switch v.kind {
	case KindInt:
		return string(strconv.AppendInt(num[:0], v.i, 10)) == text
	case KindFloat:
		return string(strconv.AppendFloat(num[:0], v.f, 'g', -1, 64)) == text
	default:
		// An escape-free literal is its quoted value; escapes only shorten
		// the value, so any other spelling must be compared in full.
		return len(text) == len(v.s)+2 || v.SQL() == text
	}
}
