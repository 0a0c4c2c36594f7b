package htl

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds of the concrete HTL syntax.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokStr
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokDot
	tokArrow // <-
	tokEq    // =
	tokNe    // !=
	tokLt    // <
	tokLe    // <=
	tokGt    // >
	tokGe    // >=
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokStr:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokArrow:
		return "'<-'"
	default:
		return "comparison operator"
	}
}

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokKind
	text string
	pos  int
}

// SyntaxError reports a lexical or parse error with its byte offset in the
// query text.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("htl: syntax error at offset %d: %s", e.Pos, e.Msg)
}

// lex tokenizes src, appending to toks. Identifiers admit letters, digits,
// '_' and interior '-' immediately followed by a letter, so `at-scene-level`
// is a single token.
func lex(toks []token, src string) ([]token, error) {
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '[':
			toks = append(toks, token{tokLBracket, "[", i})
			i++
		case c == ']':
			toks = append(toks, token{tokRBracket, "]", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '.':
			toks = append(toks, token{tokDot, ".", i})
			i++
		case c == '=':
			toks = append(toks, token{tokEq, "=", i})
			i++
		case c == '!':
			if i+1 < n && src[i+1] == '=' {
				toks = append(toks, token{tokNe, "!=", i})
				i += 2
			} else {
				return toks, &SyntaxError{i, "unexpected '!'"}
			}
		case c == '<':
			switch {
			case i+1 < n && src[i+1] == '-':
				toks = append(toks, token{tokArrow, "<-", i})
				i += 2
			case i+1 < n && src[i+1] == '=':
				toks = append(toks, token{tokLe, "<=", i})
				i += 2
			default:
				toks = append(toks, token{tokLt, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && src[i+1] == '=' {
				toks = append(toks, token{tokGe, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokGt, ">", i})
				i++
			}
		case c == '\'':
			j := strings.IndexByte(src[i+1:], '\'')
			if j < 0 {
				return toks, &SyntaxError{i, "unterminated string literal"}
			}
			toks = append(toks, token{tokStr, src[i+1 : i+1+j], i})
			i += j + 2
		case c == '-' || (c >= '0' && c <= '9'):
			start := i
			if c == '-' {
				i++
				if i >= n || src[i] < '0' || src[i] > '9' {
					return toks, &SyntaxError{start, "unexpected '-'"}
				}
			}
			for i < n && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			toks = append(toks, token{tokInt, src[start:i], start})
		case isIdentStart(rune(c)):
			start := i
			for i < n {
				ch := src[i]
				if isIdentPart(rune(ch)) {
					i++
					continue
				}
				// Interior dash glues multi-word keywords: at-next-level.
				if ch == '-' && i+1 < n && unicode.IsLetter(rune(src[i+1])) {
					i += 2
					continue
				}
				break
			}
			toks = append(toks, token{tokIdent, src[start:i], start})
		default:
			return toks, &SyntaxError{i, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
