package parser

import (
	"math/rand"
	"strings"
	"testing"
)

// streamSrc is a fixed program (the paper's cache-lookup kernel plus a
// struct and a loop) whose parse the allocation budget pins.
const streamSrc = `
struct Line { int tag; int valid; struct Line *next; };
int hits;
int cacheLookup(int addr, int cache, int blockSize, int numLines, int assoc) {
    int set, tag, line, blockOff, lineSz;
    dynamicRegion (cache, blockSize, numLines, assoc) {
        blockOff = addr & (blockSize - 1);
        lineSz = blockSize * assoc;
        set = (addr / blockSize) % numLines;
        tag = addr / (blockSize * numLines);
        unrolled for (line = 0; line < assoc; line++) {
            if (dynamic* (cache + set * lineSz + line) == tag) {
                hits += 1;
                return 1;
            }
        }
    }
    return 0;
}
int sum(int *a, int n) {
    int i, s = 0;
    for (i = 0; i < n; i++) s += a[i] * 3 + (i << 1);
    return s > 0 ? s : -s;
}
`

// TestParseAllocBudget: Parse streams its tokens through a fixed window,
// so nearly all its allocations are the AST's (177 on this program). Materializing the token slice again
// (append-grown 72-byte tokens, one allocation per growth; 186 on this
// program) breaks the budget.
func TestParseAllocBudget(t *testing.T) {
	if _, err := Parse(streamSrc); err != nil {
		t.Fatal(err)
	}
	const budget = 180
	got := testing.AllocsPerRun(20, func() {
		if _, err := Parse(streamSrc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse: %.0f allocations", got)
	if got > budget {
		t.Errorf("Parse makes %.0f allocations; budget %d", got, budget)
	}
}

// TestLexErrorWinsOverParseError: the parser stops at its first error, but
// the lexer still scans the whole source, so a lex error anywhere is the
// one reported, ahead of an earlier parse error.
func TestLexErrorWinsOverParseError(t *testing.T) {
	cases := []string{
		`int f( { } int g() { return 'x; }`,      // parse error, then an unterminated char
		`int f() { return ; ; } int s = "abc`,    // parse error, then an unterminated string
		`int f( ) { ) } /* never closed`,         // parse error, then an unterminated comment
		"int f() { return 1 +; }\nint g() { @ }", // parse error, then an illegal character
		`@ int f() { return 0; }`,                // lex error first of all
	}
	for _, src := range cases {
		_, err := Parse(src)
		if err == nil || !strings.HasPrefix(err.Error(), "lex: ") {
			t.Errorf("%q: got %v, want a lex: error", src, err)
		}
	}
	if _, err := Parse(`int f( { }`); err == nil || strings.HasPrefix(err.Error(), "lex: ") {
		t.Errorf("a lex-clean source with a parse error: got %v, want a parse error", err)
	}
	// The parser now also runs over streams holding a lex error's tokens
	// (ILLEGAL, or a literal that failed to convert): random token soup
	// with one such lexeme somewhere must neither panic nor hang, and must
	// report the lex error.
	atoms := []string{"int", "struct", "if", "for", "return", "dynamicRegion",
		"unrolled", "x", "42", "(", ")", "{", "}", ";", ",", "=", "+", "*", "->"}
	bad := []string{"@", "'x", "0x", "\"open", "/* open", "99999999999999999999"}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		words := make([]string, 1+r.Intn(40))
		for i := range words {
			words[i] = atoms[r.Intn(len(atoms))]
		}
		words[r.Intn(len(words))] = bad[r.Intn(len(bad))]
		src := strings.Join(words, " ")
		if _, err := Parse(src); err == nil || !strings.HasPrefix(err.Error(), "lex: ") {
			t.Errorf("seed %d %q: got %v, want a lex: error", seed, src, err)
		}
	}
}

// BenchmarkParse parses the fixed program (front end only: lexer and
// parser).
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(streamSrc)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(streamSrc); err != nil {
			b.Fatal(err)
		}
	}
}
