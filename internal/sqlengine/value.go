package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates runtime value kinds.
type Kind uint8

// Value kinds. Timestamps are microseconds since the epoch, matching the
// paper's microsecond-resolution user-defined time function.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime // microseconds since epoch
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1), time (µs)
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{kind: KindNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a double value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewTime returns a timestamp value from microseconds since the epoch.
func NewTime(micros int64) Value { return Value{kind: KindTime, i: micros} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the value as int64 (valid for Int, Bool and Time kinds).
func (v Value) Int() int64 { return v.i }

// Float returns the value as float64, coercing integers.
func (v Value) Float() float64 {
	if v.kind == KindFloat {
		return v.f
	}
	return float64(v.i)
}

// Str returns the underlying string (valid for String kind).
func (v Value) Str() string { return v.s }

// Bool returns the value's truthiness: non-zero numbers and non-empty
// strings are true; NULL is false.
func (v Value) Bool() bool {
	switch v.kind {
	case KindBool, KindInt, KindTime:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// Micros returns the timestamp in microseconds (valid for Time and Int).
func (v Value) Micros() int64 { return v.i }

// numeric reports whether the value can participate in arithmetic.
func (v Value) numeric() bool {
	switch v.kind {
	case KindInt, KindFloat, KindBool, KindTime:
		return true
	default:
		return false
	}
}

// String renders the value for result display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt, KindTime:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal (strings quoted and escaped). The
// binlog uses this to interpolate bound parameters into replayable
// statement text, the way MySQL's statement-based log records fully-formed
// statements.
func (v Value) SQL() string {
	if v.kind != KindString {
		return v.String()
	}
	var b strings.Builder
	b.Grow(len(v.s) + 2)
	v.writeSQL(&b)
	return b.String()
}

// writeSQL appends the SQL literal form of v (see SQL) to b without
// intermediate strings: the master renders every write's binlog text
// through it.
func (v Value) writeSQL(b *strings.Builder) {
	var num [32]byte
	switch v.kind {
	case KindString:
		b.WriteByte('\'')
		s := v.s
		for {
			i := strings.IndexAny(s, `'\`)
			if i < 0 {
				break
			}
			b.WriteString(s[:i])
			if s[i] == '\\' {
				b.WriteString(`\\`)
			} else {
				b.WriteString("''")
			}
			s = s[i+1:]
		}
		b.WriteString(s)
		b.WriteByte('\'')
	case KindInt, KindTime:
		b.Write(strconv.AppendInt(num[:0], v.i, 10))
	case KindFloat:
		b.Write(strconv.AppendFloat(num[:0], v.f, 'g', -1, 64))
	default:
		b.WriteString(v.String())
	}
}

// Compare orders two values: -1, 0, or +1. NULL sorts before everything and
// equals only NULL. Numeric kinds compare numerically across kinds; strings
// compare lexicographically. Comparing string with numeric kinds compares
// the string's numeric parse when possible, else string forms — mirroring
// MySQL's permissive coercion.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		if a.kind == KindFloat || b.kind == KindFloat {
			return cmpFloat(a.Float(), b.Float())
		}
		return cmpInt(a.i, b.i)
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.s, b.s)
	}
	// Mixed string/numeric: try numeric parse of the string side.
	if a.kind == KindString {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.s), 64); err == nil {
			return cmpFloat(f, b.Float())
		}
		return strings.Compare(a.s, b.String())
	}
	if f, err := strconv.ParseFloat(strings.TrimSpace(b.s), 64); err == nil {
		return cmpFloat(a.Float(), f)
	}
	return strings.Compare(a.String(), b.s)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports value equality under Compare semantics, with NULL ≠ NULL
// handled by the caller when three-valued logic applies.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// key returns a map key identifying the value for index lookups. Values
// that compare equal across kinds (1 and 1.0) share a key.
func (v Value) key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindString:
		return "s" + v.s
	default:
		return string(v.appendKey(nil))
	}
}

// appendKey appends v's map key (same bytes as key) to b, for callers that
// build composite keys row-by-row and must not allocate one string per value.
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, 0x00)
	case KindString:
		return append(append(b, 's'), v.s...)
	case KindFloat:
		if v.f == float64(int64(v.f)) {
			return strconv.AppendInt(append(b, 'n'), int64(v.f), 10)
		}
		return strconv.AppendFloat(append(b, 'n'), v.f, 'g', -1, 64)
	default: // int, bool, time
		return strconv.AppendInt(append(b, 'n'), v.i, 10)
	}
}
