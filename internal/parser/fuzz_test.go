package parser

import (
	"strconv"
	"strings"
	"testing"

	"dbspinner/internal/lexer"
	"dbspinner/internal/sqltypes"
)

// FuzzParseRoundTrip checks parse → print → parse → print idempotence
// on arbitrary input: whenever the parser accepts a statement, the
// printed form must re-parse to the same printed form, and the
// provenance-carrying AST must never make printing panic. The seed
// corpus is the paper's workload queries plus one variant per
// termination type, so plain `go test` already exercises every UNTIL
// shape; `go test -fuzz=FuzzParseRoundTrip ./internal/parser` explores
// from there.
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		PRQuery,
		SSSPQuery,
		FFQuery,
		"WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v FROM c UNTIL DELTA < 1) SELECT k FROM c",
		"WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL ANY (i >= 4)) SELECT i FROM c",
		"WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL ALL (i >= 4)) SELECT i FROM c",
		"WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 3 UPDATES) SELECT i FROM c",
		"WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r WHERE n < 5) SELECT n FROM r",
		"SELECT DISTINCT a, b AS x FROM t LEFT JOIN s ON t.id = s.id WHERE a > 1 GROUP BY a, b HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 3",
		"SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t",
		"INSERT INTO t (a) SELECT x FROM s",
		"UPDATE t SET a = 1 FROM s WHERE t.id = s.id",
		"EXPLAIN SELECT least(a, b) FROM t OFFSET 2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return // rejecting input is fine; crashing or diverging is not
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse:\ninput: %q\nprinted: %q\nerr: %v", sql, printed, err)
		}
		if got := again.String(); got != printed {
			t.Fatalf("printing is not idempotent:\ninput: %q\n first: %q\nsecond: %q", sql, printed, got)
		}
		if strings.TrimSpace(printed) == "" {
			t.Fatalf("accepted statement printed as whitespace: input %q", sql)
		}
	})
}

// FuzzNormalizeBind checks the two halves a prepared statement rests on.
// Normalize: a text's shape and its literal tokens (lexer.Shape) are all
// of it — the token stream rebuilt from them parses to a statement that
// prints as the text's own parse does. Bind: the parser numbers the
// literals in the order the shape lists them — the parsed statement,
// printing each literal as the value LiteralValue gives the token in its
// slot (ast.Uses.Show), prints unchanged. Seeds: the workload queries,
// the adhoc benchmark's seven shapes, negative and MinInt64 literals,
// UNTIL n, LIMIT/OFFSET, ORDER BY positions and quoted strings.
func FuzzNormalizeBind(f *testing.F) {
	for _, s := range []string{
		PRQuery, SSSPQuery, FFQuery,
		PRQuery + " ORDER BY Node LIMIT 100042",
		SSSPQuery + " ORDER BY Node LIMIT 100042",
		`WITH ITERATIVE forecast (node, friends, friendsPrev) AS (SELECT src AS node, count(dst) AS friends, ceiling(count(dst) * (1.0-(src%10)/100.0)) AS friendsPrev FROM edges GROUP BY src ITERATE SELECT node AS node, round(cast((friends / friendsPrev) * friends AS numeric), 5) AS friends, friends AS friendsPrev FROM forecast UNTIL 3 ITERATIONS) SELECT node, friends FROM forecast WHERE MOD(node, 4) = 0 ORDER BY friends DESC LIMIT 100042`,
		`SELECT e.dst AS node, COUNT(*) AS indeg, SUM(e.weight) AS w FROM edges AS e JOIN vertexStatus AS v ON v.node = e.dst WHERE v.status != 0 GROUP BY e.dst ORDER BY node LIMIT 100042`,
		`WITH RECURSIVE reach (node) AS (SELECT 7 UNION SELECT edges.dst FROM reach JOIN edges ON edges.src = reach.node) SELECT node FROM reach ORDER BY node LIMIT 100042`,
		"SELECT -5, - 2.5, -(3), -9223372036854775808, - -9223372036854775808, 9223372036854775807",
		"WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 12 ITERATIONS) SELECT i FROM c",
		"WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v FROM c UNTIL DELTA < 2) SELECT k FROM c",
		"SELECT a, b FROM t ORDER BY 2 DESC, 1 LIMIT 10 OFFSET 3",
		"SELECT 'it''s', '', \"quoted id\", 'x' || 'y' FROM t WHERE s = 'a''b' AND u IS NOT NULL AND v = NULL AND w = TRUE OR z = false",
		"SELECT CASE x WHEN 1 THEN 'one' WHEN 2.5e3 THEN 'two' ELSE NULL END FROM t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		want, err := Parse(sql)
		if err != nil {
			return
		}
		shape, lits, err := lexer.Shape(sql)
		if err != nil {
			t.Fatalf("the parser accepts %q but Shape fails: %v", sql, err)
		}
		rebuilt, err := newParser(unshape(t, shape, lits), "").parseAll()
		if err != nil || len(rebuilt) != 1 || rebuilt[0].String() != want.String() {
			t.Fatalf("shape and literals do not rebuild the statement:\ninput: %q\nparsed:  %v\nrebuilt: %v (%v)", sql, want, rebuilt, err)
		}
		stmt, uses, err := ParseUses(sql)
		if err != nil {
			t.Fatal(err)
		}
		params := make([]sqltypes.Value, len(lits))
		for i, tok := range lits {
			// A token that does not convert (the magnitude of MinInt64) was
			// folded into a literal without a slot; nothing prints it.
			params[i], _ = LiteralValue(tok)
		}
		uses.Show(params)
		if got := stmt.String(); got != want.String() {
			t.Fatalf("literals bound from their tokens print differently:\ninput: %q\nparsed: %s\nbound:  %s", sql, want, got)
		}
	})
}

// unshape decodes a shape (lexer.Shape documents the encoding) back into
// the token stream it was made of, taking each literal from lits.
func unshape(t *testing.T, shape string, lits []lexer.Token) []lexer.Token {
	var out []lexer.Token
	for i := 0; i < len(shape); {
		if c := shape[i]; c >= 'A' {
			if len(lits) == 0 {
				t.Fatalf("shape %q has more literals than Shape listed", shape)
			}
			out, lits = append(out, lits[0]), lits[1:]
			i++
			continue
		}
		colon := strings.IndexByte(shape[i:], ':') + i
		n, err := strconv.Atoi(shape[i+1 : colon])
		if err != nil {
			t.Fatalf("shape %q: bad length at %d", shape, i)
		}
		out = append(out, lexer.Token{Kind: lexer.Kind(shape[i]), Text: shape[colon+1 : colon+1+n]})
		i = colon + 1 + n
	}
	return append(out, lexer.Token{Kind: lexer.EOF})
}
