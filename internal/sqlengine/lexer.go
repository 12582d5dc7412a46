package sqlengine

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokParam // ?
	tokSymbol
)

type token struct {
	kind tokenKind
	text string // keywords uppercased, idents as written
	pos  int    // byte offset for error messages
}

// keywords recognized by the dialect, each mapped to itself so the lexer
// hands out the interned upper-case text instead of allocating a copy.
// Idents matching these (case insensitively) lex as keywords.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range strings.Fields(`
		SELECT INSERT UPDATE DELETE CREATE DROP TABLE DATABASE
		INTO VALUES SET FROM WHERE AND OR NOT NULL TRUE FALSE ORDER BY ASC DESC
		LIMIT OFFSET GROUP JOIN INNER LEFT ON AS IN IS LIKE BETWEEN PRIMARY KEY
		INDEX UNIQUE IF EXISTS BEGIN COMMIT ROLLBACK USE EXPLAIN ANALYZE SHOW
		DESCRIBE INT INTEGER BIGINT DOUBLE FLOAT VARCHAR TEXT BOOLEAN BOOL
		TIMESTAMP DATETIME COUNT SUM AVG MIN MAX DISTINCT HAVING TRUNCATE`) {
		m[kw] = kw
	}
	return m
}()

// keywordOf returns the interned keyword a word spells, case-insensitively.
// The word is upper-cased into a stack buffer, so the lookup allocates
// nothing; no keyword is longer than the buffer.
func keywordOf(word string) (string, bool) {
	var buf [16]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// lexError is a tokenization failure.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string { return fmt.Sprintf("lex error at offset %d: %s", e.pos, e.msg) }

// scanner yields the tokens of one SQL text in order. lex collects them for
// the parser; lift (lift.go) streams them to parameterize a statement
// without building a token slice. Token texts are substrings of the input
// wherever possible (identifiers, numbers, symbols, escape-free strings),
// and keywords are interned, so scanning allocates only for string literals
// that carry escapes.
type scanner struct {
	sql string
	i   int // offset of the next unread byte
}

// next returns the following token, tokEOF at the end of the text.
func (sc *scanner) next() (token, error) {
	sql, n := sc.sql, len(sc.sql)
	i := sc.i
	for i < n {
		c := sql[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		if c == '-' && i+1 < n && sql[i+1] == '-' {
			for i < n && sql[i] != '\n' {
				i++
			}
			continue
		}
		break
	}
	if i >= n {
		sc.i = n
		return token{tokEOF, "", n}, nil
	}
	start := i
	c := sql[i]
	var tok token
	switch {
	case isDigit(c) || (c == '.' && i+1 < n && isDigit(sql[i+1])):
		isFloat := false
		for i < n && (isDigit(sql[i]) || sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' ||
			((sql[i] == '+' || sql[i] == '-') && i > start && (sql[i-1] == 'e' || sql[i-1] == 'E'))) {
			if sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' {
				isFloat = true
			}
			i++
		}
		kind := tokInt
		if isFloat {
			kind = tokFloat
		}
		tok = token{kind, sql[start:i], start}
	case c == '\'':
		text, end, err := scanString(sql, start)
		if err != nil {
			return token{}, err
		}
		i = end
		tok = token{tokString, text, start}
	case isIdentStart(c):
		for i < n && isIdentPart(sql[i]) {
			i++
		}
		word := sql[start:i]
		if kw, ok := keywordOf(word); ok {
			tok = token{tokKeyword, kw, start}
		} else {
			tok = token{tokIdent, word, start}
		}
	case c == '`': // quoted identifier
		j := strings.IndexByte(sql[i+1:], '`')
		if j < 0 {
			return token{}, &lexError{start, "unterminated quoted identifier"}
		}
		tok = token{tokIdent, sql[i+1 : i+1+j], start}
		i += j + 2
	case c == '?':
		tok = token{tokParam, "?", start}
		i++
	default:
		if i+1 < n {
			switch op := sql[i : i+2]; op {
			case "<=", ">=", "<>", "!=":
				sc.i = i + 2
				return token{tokSymbol, op, start}, nil
			}
		}
		switch c {
		case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
			tok = token{tokSymbol, sql[i : i+1], start}
			i++
		default:
			return token{}, &lexError{start, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	sc.i = i
	return tok, nil
}

// scanString reads the string literal opening at sql[start] and returns its
// value and the offset just past the closing quote. A literal without
// escapes comes back as a substring of sql; only doubled-quote and backslash
// escapes need a decoded copy.
func scanString(sql string, start int) (string, int, error) {
	n := len(sql)
	i := start + 1
	for i < n && sql[i] != '\'' && sql[i] != '\\' {
		i++
	}
	if i < n && sql[i] == '\'' && (i+1 >= n || sql[i+1] != '\'') {
		return sql[start+1 : i], i + 1, nil
	}
	var b strings.Builder
	b.WriteString(sql[start+1 : i])
	for i < n {
		if sql[i] == '\'' {
			if i+1 < n && sql[i+1] == '\'' { // escaped quote
				b.WriteByte('\'')
				i += 2
				continue
			}
			return b.String(), i + 1, nil
		}
		if sql[i] == '\\' && i+1 < n { // backslash escapes
			switch sql[i+1] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(sql[i+1])
			}
			i += 2
			continue
		}
		b.WriteByte(sql[i])
		i++
	}
	return "", n, &lexError{start, "unterminated string literal"}
}

// lex tokenizes a SQL string.
func lex(sql string) ([]token, error) {
	// Sized so typical statements tokenize in one allocation.
	toks := make([]token, 0, len(sql)/5+4)
	sc := scanner{sql: sql}
	for {
		t, err := sc.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) || c == '$' }
