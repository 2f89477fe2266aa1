package ctoken

import (
	"fmt"
	"strconv"
	"strings"
)

// ScanError describes a lexical error at a position.
type ScanError struct {
	Pos Pos
	Msg string
}

func (e *ScanError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Scanner converts C-subset source text into tokens.
type Scanner struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewScanner returns a scanner over src; file is used in positions.
func NewScanner(file, src string) *Scanner {
	return &Scanner{src: src, file: file, line: 1, col: 1}
}

// ScanAll tokenizes the whole input, returning the tokens terminated by an
// EOF token.
func ScanAll(file, src string) ([]Token, error) {
	s := NewScanner(file, src)
	// Every token but EOF takes at least one byte, and C source runs
	// under 0.4 tokens per byte (the shipped programs, libc included, run
	// 0.14–0.40), so half a token per byte sizes the slice once. Denser
	// input still scans: append grows it.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := s.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (s *Scanner) pos() Pos { return Pos{File: s.file, Line: s.line, Col: s.col} }

func (s *Scanner) peek() byte {
	if s.off >= len(s.src) {
		return 0
	}
	return s.src[s.off]
}

func (s *Scanner) peek2() byte {
	if s.off+1 >= len(s.src) {
		return 0
	}
	return s.src[s.off+1]
}

func (s *Scanner) advance() byte {
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

func (s *Scanner) errorf(p Pos, format string, args ...interface{}) error {
	return &ScanError{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// skipSpace consumes whitespace, comments, and line markers.
func (s *Scanner) skipSpace() error {
	for s.off < len(s.src) {
		c := s.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			s.advance()
		case c == '/' && s.peek2() == '/':
			for s.off < len(s.src) && s.peek() != '\n' {
				s.advance()
			}
		case c == '/' && s.peek2() == '*':
			p := s.pos()
			s.advance()
			s.advance()
			closed := false
			for s.off < len(s.src) {
				if s.peek() == '*' && s.peek2() == '/' {
					s.advance()
					s.advance()
					closed = true
					break
				}
				s.advance()
			}
			if !closed {
				return s.errorf(p, "unterminated block comment")
			}
		case c == '#':
			// We accept and ignore preprocessor-style line directives so
			// hand-preprocessed sources with #line markers still scan.
			for s.off < len(s.src) && s.peek() != '\n' {
				s.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Next returns the next token.
func (s *Scanner) Next() (Token, error) {
	if err := s.skipSpace(); err != nil {
		return Token{}, err
	}
	p := s.pos()
	if s.off >= len(s.src) {
		return Token{Kind: EOF, Pos: p}, nil
	}
	c := s.peek()
	switch {
	case isIdentStart(c):
		return s.scanIdent(p), nil
	case isDigit(c) || (c == '.' && isDigit(s.peek2())):
		return s.scanNumber(p)
	case c == '\'':
		return s.scanChar(p)
	case c == '"':
		return s.scanString(p)
	}
	return s.scanOperator(p)
}

func (s *Scanner) scanIdent(p Pos) Token {
	start := s.off
	for s.off < len(s.src) && isIdentCont(s.peek()) {
		s.advance()
	}
	text := s.src[start:s.off]
	return Token{Kind: Lookup(text), Pos: p, Text: text}
}

func (s *Scanner) scanNumber(p Pos) (Token, error) {
	start := s.off
	isFloat := false
	if s.peek() == '0' && (s.peek2() == 'x' || s.peek2() == 'X') {
		s.advance()
		s.advance()
		for s.off < len(s.src) && isHexDigit(s.peek()) {
			s.advance()
		}
	} else {
		for s.off < len(s.src) && isDigit(s.peek()) {
			s.advance()
		}
		if s.peek() == '.' {
			isFloat = true
			s.advance()
			for s.off < len(s.src) && isDigit(s.peek()) {
				s.advance()
			}
		}
		if s.peek() == 'e' || s.peek() == 'E' {
			next := s.peek2()
			if isDigit(next) || next == '+' || next == '-' {
				isFloat = true
				s.advance()
				if s.peek() == '+' || s.peek() == '-' {
					s.advance()
				}
				for s.off < len(s.src) && isDigit(s.peek()) {
					s.advance()
				}
			}
		}
	}
	digits := s.src[start:s.off]

	var unsigned, long bool
	for {
		c := s.peek()
		if c == 'u' || c == 'U' {
			unsigned = true
			s.advance()
		} else if c == 'l' || c == 'L' {
			long = true
			s.advance()
		} else if (c == 'f' || c == 'F') && isFloat {
			s.advance()
		} else {
			break
		}
	}

	if isFloat {
		v, err := strconv.ParseFloat(digits, 64)
		if err != nil {
			return Token{}, s.errorf(p, "bad float literal %q", digits)
		}
		return Token{Kind: FloatLit, Pos: p, Text: digits, FloatVal: v}, nil
	}
	v, err := strconv.ParseUint(digits, 0, 64)
	if err != nil {
		return Token{}, s.errorf(p, "bad integer literal %q", digits)
	}
	return Token{Kind: IntLit, Pos: p, Text: digits, IntVal: v,
		Unsigned: unsigned, Long: long}, nil
}

func (s *Scanner) scanEscape(p Pos) (byte, error) {
	if s.off >= len(s.src) {
		return 0, s.errorf(p, "unterminated escape")
	}
	c := s.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case 'a':
		return 7, nil
	case 'b':
		return 8, nil
	case 'f':
		return 12, nil
	case 'v':
		return 11, nil
	case '\\', '\'', '"', '?':
		return c, nil
	case 'x':
		var v int
		n := 0
		for s.off < len(s.src) && isHexDigit(s.peek()) && n < 2 {
			d, _ := strconv.ParseUint(string(s.advance()), 16, 8)
			v = v*16 + int(d)
			n++
		}
		if n == 0 {
			return 0, s.errorf(p, "\\x with no hex digits")
		}
		return byte(v), nil
	}
	return 0, s.errorf(p, "unknown escape \\%c", c)
}

func (s *Scanner) scanChar(p Pos) (Token, error) {
	s.advance() // '
	if s.off >= len(s.src) {
		return Token{}, s.errorf(p, "unterminated character literal")
	}
	var v byte
	c := s.advance()
	if c == '\\' {
		e, err := s.scanEscape(p)
		if err != nil {
			return Token{}, err
		}
		v = e
	} else {
		v = c
	}
	if s.off >= len(s.src) || s.advance() != '\'' {
		return Token{}, s.errorf(p, "unterminated character literal")
	}
	return Token{Kind: CharLit, Pos: p, Text: string(v), IntVal: uint64(v)}, nil
}

func (s *Scanner) scanString(p Pos) (Token, error) {
	var sb strings.Builder
	for {
		s.advance() // opening quote
		for {
			if s.off >= len(s.src) {
				return Token{}, s.errorf(p, "unterminated string literal")
			}
			c := s.advance()
			if c == '"' {
				break
			}
			if c == '\n' {
				return Token{}, s.errorf(p, "newline in string literal")
			}
			if c == '\\' {
				e, err := s.scanEscape(p)
				if err != nil {
					return Token{}, err
				}
				sb.WriteByte(e)
				continue
			}
			sb.WriteByte(c)
		}
		// Adjacent string literals concatenate, as in C.
		if err := s.skipSpace(); err != nil {
			return Token{}, err
		}
		if s.peek() != '"' {
			break
		}
	}
	return Token{Kind: StringLit, Pos: p, StrVal: sb.String()}, nil
}

type operator struct {
	text string
	kind Kind
}

// operator table ordered longest-first so maximal munch works.
var operators = []operator{
	{"...", Ellipsis}, {"<<=", ShlAssign}, {">>=", ShrAssign},
	{"->", Arrow}, {"++", Inc}, {"--", Dec}, {"<<", Shl}, {">>", Shr},
	{"<=", Le}, {">=", Ge}, {"==", Eq}, {"!=", Ne}, {"&&", AndAnd},
	{"||", OrOr}, {"+=", PlusAssign}, {"-=", MinusAssign},
	{"*=", StarAssign}, {"/=", SlashAssign}, {"%=", PercentAssign},
	{"&=", AmpAssign}, {"|=", PipeAssign}, {"^=", CaretAssign},
	{"(", LParen}, {")", RParen}, {"{", LBrace}, {"}", RBrace},
	{"[", LBracket}, {"]", RBracket}, {";", Semi}, {",", Comma},
	{".", Dot}, {"+", Plus}, {"-", Minus}, {"*", Star}, {"/", Slash},
	{"%", Percent}, {"&", Amp}, {"|", Pipe}, {"^", Caret}, {"~", Tilde},
	{"!", Not}, {"<", Lt}, {">", Gt}, {"=", Assign}, {"?", Question},
	{":", Colon},
}

// operatorsByFirst lists, for each byte, the operators that start with
// it, in the longest-first order of operators.
var operatorsByFirst = func() (t [256][]operator) {
	for _, op := range operators {
		t[op.text[0]] = append(t[op.text[0]], op)
	}
	return t
}()

func (s *Scanner) scanOperator(p Pos) (Token, error) {
	rest := s.src[s.off:]
	for _, op := range operatorsByFirst[rest[0]] {
		if strings.HasPrefix(rest, op.text) {
			for range op.text {
				s.advance()
			}
			return Token{Kind: op.kind, Pos: p, Text: op.text}, nil
		}
	}
	return Token{}, s.errorf(p, "unexpected character %q", s.peek())
}
