package sqlparser

import (
	"strings"
	"testing"
)

// TestErrorMessageStability pins the exact text of user-facing parse
// errors: tools (and the differential oracle's shrinker) match on these
// strings, so a rewording is an API break, not a cosmetic change.
func TestErrorMessageStability(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{
			name: "unterminated string",
			sql:  "SELECT A FROM R WHERE A = 'oops",
			want: "unterminated string literal",
		},
		{
			name: "unterminated string offset",
			sql:  "SELECT A FROM R WHERE A = 'oops",
			// The offset points at the opening quote, line counting at 1.
			want: "line 1 (offset 26): unterminated string literal",
		},
		{
			name: "disjunction unsupported",
			sql:  "SELECT A FROM R WHERE A = 1 OR B = 2",
			want: "is not supported: conditions must be conjunctions of comparisons",
		},
		{
			name: "star aggregate",
			sql:  "SELECT MIN(*) FROM R",
			want: "MIN(*) is not valid SQL; only COUNT(*)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.sql)
			if err == nil {
				t.Fatalf("Parse(%q): expected error", tc.sql)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) error = %q, want it to contain %q", tc.sql, err, tc.want)
			}
		})
	}
}

// TestUnterminatedStringMultiline checks the reported line number tracks
// newlines preceding the bad literal.
func TestUnterminatedStringMultiline(t *testing.T) {
	_, err := Parse("SELECT A\nFROM R\nWHERE A = 'dangling")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "unterminated string literal") {
		t.Fatalf("error = %q, want line 3 unterminated-string", err)
	}
}

// TestLexErrorThroughTheWindow: the parser lexes as it goes, and a lex
// error is still what comes back — with the lexer's own text and
// position, even where the shortened token stream would have parsed
// (the bad character sits where the query could end) or failed to (a
// clause cut short). Only a parse error the parser reaches before the
// lexer reaches the bad character comes first.
func TestLexErrorThroughTheWindow(t *testing.T) {
	for _, tc := range []struct{ name, sql, want string }{
		{"where the query could end", "SELECT A FROM R !", `line 1 (offset 16): unexpected character "!"`},
		{"mid clause", "SELECT A FROM R WHERE A = # 1", `line 1 (offset 26): unexpected character "#"`},
		{"first token", "?", `line 1 (offset 0): unexpected character "?"`},
		{"in a later statement", "SELECT A FROM R;\nSELECT B FROM S WHERE B = 'x", "line 2 (offset 43): unterminated string literal"},
		{"behind a peek", "SELECT R.# FROM R", `line 1 (offset 9): unexpected character "#"`},
		{"parse error first", "SELECT FROM R; SELECT 'x", `line 1: expected`},
	} {
		_, err := ParseScript(tc.sql)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: ParseScript(%q) error = %v, want one starting %q", tc.name, tc.sql, err, tc.want)
		}
		if l := newLexer(tc.sql); tc.name != "parse error first" {
			var lexErr error
			for lexErr == nil {
				var tok token
				if tok, lexErr = l.next(); tok.kind == tokEOF && lexErr == nil {
					t.Fatalf("%s: the lexer accepts %q", tc.name, tc.sql)
				}
			}
			if lexErr.Error() != err.Error() {
				t.Errorf("%s: parser returned %q, the lexer's error is %q", tc.name, err, lexErr)
			}
		}
	}
}
