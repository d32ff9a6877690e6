// Package sqllex tokenizes SQL text for the recursive-descent parser in
// package sqlparse. It handles identifiers, quoted identifiers, numeric and
// string literals, operators, and both comment styles.
package sqllex

import (
	"fmt"
	"strings"
)

// Kind classifies tokens.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Number
	String
	Op // operator or punctuation
)

// Token is one lexical element.
type Token struct {
	Kind Kind
	Text string // raw text; for Ident the original spelling
	Up   string // upper-cased Text, used for keyword matching
	Pos  int    // byte offset in input
}

// Lexer scans SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Error is a lexical error with position context.
type Error struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("lex error at %d: %s", e.Pos, e.Msg) }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isIdentStart(c byte) bool {
	return c == '_' || c == '@' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

// PlainIdent reports whether s lexes as one unquoted identifier, so that it
// can be written without quotes.
func PlainIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentCont(s[i]) {
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or an EOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return Token{Kind: EOF, Pos: l.pos}, nil
		}
		// comments
		if l.hasPrefix("--") {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if l.hasPrefix("/*") {
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return Token{}, &Error{Pos: l.pos, Msg: "unterminated block comment"}
			}
			l.pos += 2 + end + 2
			continue
		}
		break
	}

	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
			l.pos++
		}
		// MySQL session variables: @@SESSION.name — fold the @@ prefix into
		// one identifier token.
		txt := l.src[start:l.pos]
		return Token{Kind: Ident, Text: txt, Up: strings.ToUpper(txt), Pos: start}, nil

	case c == '"' || c == '`':
		// quoted identifier
		quote := c
		l.pos++
		qstart := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return Token{}, &Error{Pos: start, Msg: "unterminated quoted identifier"}
		}
		txt := l.src[qstart:l.pos]
		l.pos++
		return Token{Kind: Ident, Text: txt, Up: strings.ToUpper(txt), Pos: start}, nil

	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, &Error{Pos: start, Msg: "unterminated string literal"}
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return Token{Kind: String, Text: sb.String(), Pos: start}, nil

	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		l.pos++
		seenDot := c == '.'
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			if (ch == 'e' || ch == 'E') && l.pos+1 < len(l.src) &&
				(isDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '-' || l.src[l.pos+1] == '+') {
				l.pos += 2
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			}
			break
		}
		return Token{Kind: Number, Text: l.src[start:l.pos], Pos: start}, nil

	default:
		// multi-char operators first
		for _, op := range [...]string{"<>", "<=", ">=", "!=", "||", "::"} {
			if l.hasPrefix(op) {
				l.pos += 2
				return Token{Kind: Op, Text: op, Up: op, Pos: start}, nil
			}
		}
		l.pos++
		txt := l.src[start:l.pos]
		return Token{Kind: Op, Text: txt, Up: txt, Pos: start}, nil
	}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
}

func (l *Lexer) hasPrefix(s string) bool {
	return strings.HasPrefix(l.src[l.pos:], s)
}

// Tokenize scans the whole input, returning all tokens excluding the final
// EOF. It is a convenience for tests and for the parser's lookahead buffer.
func Tokenize(src string) ([]Token, error) {
	l := New(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return out, nil
		}
		out = append(out, t)
	}
}
