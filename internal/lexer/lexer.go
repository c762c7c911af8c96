// Package lexer tokenizes SQL text for the DBSpinner parser, covering
// the grammar of the paper's queries: identifiers, keywords, numeric and
// string literals, operators and punctuation, plus line (--) and block
// comments.
package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Keyword
	IntLit
	FloatLit
	StringLit
	Op    // + - * / % = != <> < <= > >= || . , ( ) ;
	Param // $1 style placeholders (reserved for future use)
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "identifier"
	case Keyword:
		return "keyword"
	case IntLit:
		return "integer"
	case FloatLit:
		return "float"
	case StringLit:
		return "string"
	case Op:
		return "operator"
	case Param:
		return "parameter"
	}
	return "unknown"
}

// Token is a single lexical unit. For keywords, Text is the uppercase
// spelling; for identifiers it preserves the original case.
type Token struct {
	Kind Kind
	Text string
	Pos  int // byte offset in the input, for error messages
}

// keywords is the reserved-word set. Iterative-CTE additions: ITERATIVE,
// ITERATE, UNTIL, ITERATIONS, UPDATES, DELTA.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"AS": true, "ON": true, "AND": true, "OR": true, "NOT": true,
	"JOIN": true, "LEFT": true, "RIGHT": true, "INNER": true, "OUTER": true,
	"FULL": true, "CROSS": true, "UNION": true, "ALL": true, "DISTINCT": true,
	"WITH": true, "RECURSIVE": true, "ITERATIVE": true, "ITERATE": true,
	"UNTIL": true, "ITERATIONS": true, "ITERATION": true, "UPDATES": true,
	"DELTA": true, "ANY": true,
	"CREATE": true, "TABLE": true, "DROP": true, "INSERT": true,
	"INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "TRUNCATE": true, "PRIMARY": true, "KEY": true,
	"IF": true, "EXISTS": true, "TEMP": true, "TEMPORARY": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"NULL": true, "TRUE": true, "FALSE": true, "IS": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "CAST": true, "ASC": true, "DESC": true,
	"EXPLAIN": true, "USING": true,
}

// IsKeyword reports whether the uppercase word is reserved.
func IsKeyword(word string) bool { return keywords[strings.ToUpper(word)] }

// Lexer scans SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// New returns a Lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Tokenize scans the entire input and returns the token stream
// terminated by an EOF token.
func Tokenize(src string) ([]Token, error) {
	l := New(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

// IsLiteral reports whether t is a literal token: a number, a string,
// TRUE, FALSE or NULL. The parser numbers these in order, and a
// statement's shape leaves their values out.
func (t Token) IsLiteral() bool {
	switch t.Kind {
	case IntLit, FloatLit, StringLit:
		return true
	case Keyword:
		return t.Text == "TRUE" || t.Text == "FALSE" || t.Text == "NULL"
	}
	return false
}

// Shape scans src into its shape and its literal tokens, in order. The
// shape is the token stream with every literal replaced by its kind —
// INT, FLOAT, STRING, BOOL or NULL — so two texts have equal shapes
// exactly when they differ, apart from spacing and comments, in the
// values of their literals alone. The error is Tokenize's.
//
// Each token is encoded in turn: a literal as one letter, D, E or F for
// an INT, FLOAT or STRING token, B for TRUE or FALSE, N for NULL; any
// other token as its Kind's byte, the decimal length of its text, a
// colon and the text.
func Shape(src string) (shape string, lits []Token, err error) {
	l := New(src)
	var b strings.Builder
	b.Grow(2 * len(src)) // a token's kind and length cost about as much as its text
	for {
		t, err := l.Next()
		if err != nil {
			return "", nil, err
		}
		if t.Kind == EOF {
			return b.String(), lits, nil
		}
		if t.IsLiteral() {
			lits = append(lits, t)
			b.WriteByte(shapeKind(t))
			continue
		}
		// The length in front of the text: no token's text can run into
		// the next one's.
		b.WriteByte(byte(t.Kind))
		b.WriteString(strconv.Itoa(len(t.Text)))
		b.WriteByte(':')
		b.WriteString(t.Text)
	}
}

// shapeKind is the letter a literal token leaves in a shape; no Kind's
// byte is a letter.
func shapeKind(t Token) byte {
	switch {
	case t.Kind != Keyword:
		return 'A' + byte(t.Kind) // INT, FLOAT or STRING
	case t.Text == "NULL":
		return 'N'
	}
	return 'B'
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.scanWord(start), nil
	case c >= '0' && c <= '9':
		return l.scanNumber(start)
	case c == '.':
		if l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			return l.scanNumber(start)
		}
		l.pos++
		return Token{Kind: Op, Text: ".", Pos: start}, nil
	case c == '\'':
		return l.scanString(start)
	case c == '"':
		return l.scanQuotedIdent(start)
	}
	// Operators, longest match first.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "!=", "<>", "<=", ">=", "||":
		l.pos += 2
		text := two
		if text == "<>" {
			text = "!=" // normalize
		}
		return Token{Kind: Op, Text: text, Pos: start}, nil
	}
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', ',', '(', ')', ';':
		l.pos++
		return Token{Kind: Op, Text: string(c), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("unexpected character %q at offset %d", c, start)
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func (l *Lexer) scanWord(start int) Token {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		return Token{Kind: Keyword, Text: upper, Pos: start}
	}
	return Token{Kind: Ident, Text: word, Pos: start}
}

func (l *Lexer) scanNumber(start int) (Token, error) {
	kind := IntLit
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		kind = FloatLit
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		mark := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			kind = FloatLit
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else {
			l.pos = mark // not an exponent; back off
		}
	}
	if l.pos < len(l.src) && isIdentStart(l.src[l.pos]) && l.src[l.pos] != 'e' && l.src[l.pos] != 'E' {
		return Token{}, fmt.Errorf("malformed number at offset %d", start)
	}
	return Token{Kind: kind, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *Lexer) scanString(start int) (Token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: StringLit, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("unterminated string literal at offset %d", start)
}

func (l *Lexer) scanQuotedIdent(start int) (Token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			return Token{Kind: Ident, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("unterminated quoted identifier at offset %d", start)
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
