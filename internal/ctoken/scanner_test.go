package ctoken

import (
	"strings"
	"testing"
	"testing/quick"

	"softbound/internal/gen"
)

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := ScanAll("test.c", src)
	if err != nil {
		t.Fatalf("scan %q: %v", src, err)
	}
	out := make([]Kind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func TestKeywordsAndIdents(t *testing.T) {
	got := kinds(t, "int x while whileX _foo return returns")
	want := []Kind{KwInt, Ident, KwWhile, Ident, Ident, KwReturn, Ident, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestIntegerLiterals(t *testing.T) {
	cases := []struct {
		src      string
		val      uint64
		unsigned bool
		long     bool
	}{
		{"0", 0, false, false},
		{"42", 42, false, false},
		{"0x1f", 31, false, false},
		{"0XFF", 255, false, false},
		{"123u", 123, true, false},
		{"123UL", 123, true, true},
		{"9L", 9, false, true},
		{"010", 8, false, false}, // octal via strconv base-0
	}
	for _, c := range cases {
		toks, err := ScanAll("t.c", c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		tok := toks[0]
		if tok.Kind != IntLit || tok.IntVal != c.val ||
			tok.Unsigned != c.unsigned || tok.Long != c.long {
			t.Errorf("%q: got %+v", c.src, tok)
		}
	}
}

func TestFloatLiterals(t *testing.T) {
	cases := map[string]float64{
		"1.0":    1.0,
		"0.5":    0.5,
		".25":    0.25,
		"1e3":    1000,
		"1.5e-2": 0.015,
		"2.5f":   2.5,
		"3E+2":   300,
	}
	for src, want := range cases {
		toks, err := ScanAll("t.c", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if toks[0].Kind != FloatLit || toks[0].FloatVal != want {
			t.Errorf("%q: got %+v", src, toks[0])
		}
	}
}

func TestCharLiterals(t *testing.T) {
	cases := map[string]uint64{
		"'a'":    'a',
		"'0'":    '0',
		`'\n'`:   '\n',
		`'\t'`:   '\t',
		`'\\'`:   '\\',
		`'\''`:   '\'',
		`'\0'`:   0,
		`'\x41'`: 'A',
	}
	for src, want := range cases {
		toks, err := ScanAll("t.c", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if toks[0].Kind != CharLit || toks[0].IntVal != want {
			t.Errorf("%q: got %+v want %d", src, toks[0], want)
		}
	}
}

func TestStringLiterals(t *testing.T) {
	toks, err := ScanAll("t.c", `"hello\n", "a\tb", "x" "y"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].StrVal != "hello\n" {
		t.Errorf("got %q", toks[0].StrVal)
	}
	if toks[2].StrVal != "a\tb" {
		t.Errorf("got %q", toks[2].StrVal)
	}
	// Adjacent literals concatenate, as in C.
	if toks[4].StrVal != "xy" {
		t.Errorf("concatenation: got %q", toks[4].StrVal)
	}
}

func TestOperatorsMaximalMunch(t *testing.T) {
	got := kinds(t, "a+++b a<<=2 a->b a--b x...")
	want := []Kind{
		Ident, Inc, Plus, Ident,
		Ident, ShlAssign, IntLit,
		Ident, Arrow, Ident,
		Ident, Dec, Ident,
		Ident, Ellipsis, EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestCommentsAndDirectives(t *testing.T) {
	src := `
// line comment
int /* block
spanning lines */ x;
# 1 "file.c"
int y;
`
	got := kinds(t, src)
	want := []Kind{KwInt, Ident, Semi, KwInt, Ident, Semi, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestPositions(t *testing.T) {
	toks, err := ScanAll("f.c", "int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v", toks[1].Pos)
	}
	if got := toks[1].Pos.String(); got != "f.c:2:3" {
		t.Errorf("Pos.String() = %q", got)
	}
}

func TestScanErrors(t *testing.T) {
	for _, src := range []string{
		"\"unterminated",
		"'",
		"'ab", // unterminated char
		"/* unterminated",
		"@",
		`"bad \q escape"`,
	} {
		if _, err := ScanAll("t.c", src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

// TestScannerNeverPanics fuzzes the scanner with arbitrary strings: it
// must either tokenize or return a ScanError, never panic or loop.
func TestScannerNeverPanics(t *testing.T) {
	f := func(s string) bool {
		// Bound input size to keep the property fast.
		if len(s) > 200 {
			s = s[:200]
		}
		toks, err := ScanAll("fuzz.c", s)
		if err != nil {
			var se *ScanError
			if !errorsAs(err, &se) {
				t.Logf("non-ScanError: %v", err)
				return false
			}
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func errorsAs(err error, target **ScanError) bool {
	se, ok := err.(*ScanError)
	if ok {
		*target = se
	}
	return ok
}

func TestTokenString(t *testing.T) {
	toks, _ := ScanAll("t.c", `foo 42 "s"`)
	for _, tok := range toks[:3] {
		if tok.String() == "" {
			t.Error("empty token string")
		}
	}
	if !strings.Contains(toks[0].String(), "foo") {
		t.Errorf("ident string: %q", toks[0].String())
	}
}

// Each operator scans alone to its own kind, through the first-byte
// table.
func TestEveryOperatorScansAlone(t *testing.T) {
	for _, op := range operators {
		toks, err := ScanAll("t.c", op.text)
		if err != nil {
			t.Fatalf("%q: %v", op.text, err)
		}
		if len(toks) != 2 || toks[0].Kind != op.kind || toks[0].Text != op.text || toks[1].Kind != EOF {
			t.Errorf("%q scans to %v", op.text, toks)
		}
	}
}

// Maximal munch: the longest operator at each position wins.
func TestOperatorsMaximalMunchPinned(t *testing.T) {
	for src, want := range map[string][]Kind{
		"<<=":       {ShlAssign, EOF},
		">>=":       {ShrAssign, EOF},
		"...":       {Ellipsis, EOF},
		"->":        {Arrow, EOF},
		"a---b":     {Ident, Dec, Minus, Ident, EOF},
		"x<<=y>>=z": {Ident, ShlAssign, Ident, ShrAssign, Ident, EOF},
		"..":        {Dot, Dot, EOF},
		"<<<=>>>":   {Shl, Le, Shr, Gt, EOF},
		"a+++++b":   {Ident, Inc, Inc, Plus, Ident, EOF},
		"&&&|||":    {AndAnd, Amp, OrOr, Pipe, EOF},
		"!==->-=":   {Ne, Assign, Arrow, MinusAssign, EOF},
	} {
		got := kinds(t, src)
		if len(got) != len(want) {
			t.Errorf("%q: got %v want %v", src, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q: got %v want %v", src, got, want)
				break
			}
		}
	}
}

// A byte that starts no token is reported with the same text as ever.
func TestUnknownByteError(t *testing.T) {
	for src, want := range map[string]string{
		"@":        `t.c:1:1: unexpected character '@'`,
		"a $":      `t.c:1:3: unexpected character '$'`,
		"x;\n  `":  "t.c:2:3: unexpected character '`'",
		"\\":       `t.c:1:1: unexpected character '\\'`,
		"\x80":     `t.c:1:1: unexpected character '\u0080'`,
		"int \x00": `t.c:1:5: unexpected character '\x00'`,
	} {
		_, err := ScanAll("t.c", src)
		if err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", src, err, want)
		}
	}
}

// ScanAll sizes its token slice once: scanning gen cell 1 allocates the
// slice and one string per string literal, nothing else.
func TestScanAllAllocatesTokensOnce(t *testing.T) {
	src := gen.Generate(1).Source()
	toks, err := ScanAll("main.c", src)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0
	for _, tok := range toks {
		if tok.Kind == StringLit && tok.StrVal != "" {
			want++
		}
	}
	if got := testing.AllocsPerRun(20, func() { ScanAll("main.c", src) }); got > want {
		t.Fatalf("ScanAll of gen cell 1 allocates %v times, want at most %v", got, want)
	}
}
