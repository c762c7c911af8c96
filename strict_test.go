package dbspinner_test

import (
	"strings"
	"testing"

	"dbspinner"
)

// TestCommonResultNeedsStrictWhere: common-result extraction may attach
// a block under a left join as inner only when a WHERE conjunct over the
// block rejects NULLs. LEAST(e.w, 5) does not: for k = 2, which e does
// not match, it is LEAST(NULL, 5) = 5 and the row survives. The answer
// must not depend on whether common results are extracted.
func TestCommonResultNeedsStrictWhere(t *testing.T) {
	const query = `WITH ITERATIVE c (k, m) AS (
	SELECT k, 0 FROM t
 ITERATE
	SELECT c.k, COUNT(v2.n)
	FROM c
	 LEFT JOIN e ON c.k = e.a
	 JOIN vs AS v2 ON v2.n = COALESCE(e.b, 0)
	WHERE LEAST(e.w, 5) < 10
	GROUP BY c.k
 UNTIL 2 ITERATIONS)
SELECT k, m FROM c ORDER BY k`
	for _, cfg := range []dbspinner.Config{{}, {Baseline: dbspinner.OptCommonResults}} {
		e := dbspinner.New(cfg)
		for _, sql := range []string{
			"CREATE TABLE t (k int)",
			"INSERT INTO t VALUES (1), (2)",
			"CREATE TABLE e (a int, b int, w int)",
			"INSERT INTO e VALUES (1, 7, 1)",
			"CREATE TABLE vs (n int)",
			"INSERT INTO vs VALUES (0), (7)",
		} {
			if _, err := e.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		res, err := e.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, r.String())
		}
		if g := strings.Join(got, "; "); g != "1, 1; 2, 1" {
			t.Errorf("baseline %06b: rows %s, want 1, 1; 2, 1", cfg.Baseline, g)
		}
	}
}
