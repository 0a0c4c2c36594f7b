package relational

import (
	"fmt"
	"strings"
)

type sqlTokKind uint8

const (
	sEOF sqlTokKind = iota
	sIdent
	sKeyword
	sInt
	sFloat
	sSymbol // ( ) , ; * + - / . = <= >=
)

type sqlTok struct {
	kind sqlTokKind
	text string // keywords upper-cased
	pos  int
}

// SQLError reports a lexical, parse or runtime SQL error.
type SQLError struct {
	Pos int // byte offset, -1 when unavailable
	Msg string
}

func (e *SQLError) Error() string {
	if e.Pos >= 0 {
		return fmt.Sprintf("sql: %s (at offset %d)", e.Msg, e.Pos)
	}
	return "sql: " + e.Msg
}

func errf(pos int, format string, args ...any) *SQLError {
	return &SQLError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

var sqlKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "UNION": true, "ALL": true, "AND": true, "CREATE": true,
	"TABLE": true, "INSERT": true, "INTO": true, "INT": true, "FLOAT": true,
	"BETWEEN": true, "COUNT": true, "SUM": true, "MAX": true,
}

func sqlLex(src string) ([]sqlTok, error) {
	var toks []sqlTok
	i, n := 0, len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case strings.IndexByte("(),;*+-/.=", c) >= 0:
			toks = append(toks, sqlTok{sSymbol, string(c), i})
			i++
		case (c == '<' || c == '>') && i+1 < n && src[i+1] == '=':
			toks = append(toks, sqlTok{sSymbol, src[i : i+2], i})
			i += 2
		case c >= '0' && c <= '9':
			start := i
			kind := sInt
			for i < n && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			if i < n && src[i] == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9' {
				kind = sFloat
				i++
				for i < n && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			if i < n && (src[i] == 'e' || src[i] == 'E') {
				kind = sFloat
				i++
				if i < n && (src[i] == '+' || src[i] == '-') {
					i++
				}
				for i < n && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			toks = append(toks, sqlTok{kind, src[start:i], start})
		case isSQLIdentStart(c):
			start := i
			for i < n && isSQLIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			upper := strings.ToUpper(word)
			if sqlKeywords[upper] {
				toks = append(toks, sqlTok{sKeyword, upper, start})
			} else {
				toks = append(toks, sqlTok{sIdent, word, start})
			}
		default:
			return nil, errf(i, "unexpected character %q", c)
		}
	}
	toks = append(toks, sqlTok{sEOF, "", n})
	return toks, nil
}

func isSQLIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isSQLIdentPart(c byte) bool {
	return isSQLIdentStart(c) || (c >= '0' && c <= '9')
}
