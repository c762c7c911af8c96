package dbspinner

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/core"
	"dbspinner/internal/distprop"
	"dbspinner/internal/parser"
	"dbspinner/internal/verify"
)

// newGraphEngine creates an engine loaded with the 4-edge test graph
// used throughout the core tests: 1->2 (0.5), 1->3 (0.5), 2->3 (1.0),
// 3->1 (1.0), plus a vertexStatus table with every node available.
func newGraphEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Partitions: 2})
	mustExec(t, e, "CREATE TABLE edges (src int, dst int, weight float)")
	mustExec(t, e, `INSERT INTO edges VALUES (1,2,0.5), (1,3,0.5), (2,3,1.0), (3,1,1.0)`)
	mustExec(t, e, "CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)")
	mustExec(t, e, "INSERT INTO vertexStatus VALUES (1,1), (2,1), (3,1)")
	return e
}

func mustExec(t *testing.T, e *Engine, sql string) int64 {
	t.Helper()
	n, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return r
}

func resultStrings(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.String()
	}
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	e := newGraphEngine(t)
	r := mustQuery(t, e, "SELECT COUNT(*) FROM edges")
	if r.Rows[0][0].Int() != 4 {
		t.Errorf("count = %v", r.Rows[0])
	}
	if len(r.Columns) != 1 || r.Columns[0] != "count" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestInsertVariants(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, "CREATE TABLE t (a int, b float, c varchar)")
	if n := mustExec(t, e, "INSERT INTO t VALUES (1, 2, 'x'), (2, 3.5, 'y')"); n != 2 {
		t.Errorf("affected = %d", n)
	}
	// Column-list insert fills missing columns with NULL and casts.
	mustExec(t, e, "INSERT INTO t (c, a) VALUES ('z', 3.0)")
	r := mustQuery(t, e, "SELECT a, b, c FROM t WHERE c = 'z'")
	if r.Rows[0].String() != "3, NULL, z" {
		t.Errorf("row = %v", r.Rows[0])
	}
	// INSERT ... SELECT.
	mustExec(t, e, "CREATE TABLE t2 (a int, c varchar)")
	if n := mustExec(t, e, "INSERT INTO t2 SELECT a, c FROM t"); n != 3 {
		t.Errorf("insert-select affected = %d", n)
	}
	// Errors.
	if _, err := e.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Error("insert into missing table")
	}
	if _, err := e.Exec("INSERT INTO t (a) VALUES (1, 2)"); err == nil {
		t.Error("arity mismatch")
	}
	if _, err := e.Exec("INSERT INTO t (zzz) VALUES (1)"); err == nil {
		t.Error("unknown column")
	}
	if _, err := e.Exec("INSERT INTO t (a) VALUES ('abc')"); err == nil {
		t.Error("uncastable value")
	}
}

func TestUpdateInPlace(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, "CREATE TABLE t (k int, v int)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	if n := mustExec(t, e, "UPDATE t SET v = v + 1 WHERE k >= 2"); n != 2 {
		t.Errorf("affected = %d", n)
	}
	r := mustQuery(t, e, "SELECT v FROM t ORDER BY k")
	got := strings.Join(resultStrings(r), "|")
	if got != "10|21|31" {
		t.Errorf("rows = %v", got)
	}
	// Unconditional update.
	if n := mustExec(t, e, "UPDATE t SET v = 0"); n != 3 {
		t.Errorf("affected = %d", n)
	}
}

func TestUpdateFromJoin(t *testing.T) {
	// The Figure 1 pattern: UPDATE main SET ... FROM intermediate WHERE
	// keys match.
	e := New(Config{})
	mustExec(t, e, "CREATE TABLE PageRank (node int, rank float, delta float)")
	mustExec(t, e, "CREATE TABLE IntermediateTable (node int, rank float, delta float)")
	mustExec(t, e, "INSERT INTO PageRank VALUES (1, 0, 0.15), (2, 0, 0.15)")
	mustExec(t, e, "INSERT INTO IntermediateTable VALUES (1, 0.15, 0.1), (3, 9, 9)")
	n := mustExec(t, e, `UPDATE PageRank
		SET rank = IntermediateTable.rank, delta = IntermediateTable.delta
		FROM IntermediateTable
		WHERE PageRank.node = IntermediateTable.node`)
	if n != 1 {
		t.Errorf("affected = %d", n)
	}
	r := mustQuery(t, e, "SELECT node, rank, delta FROM PageRank ORDER BY node")
	got := strings.Join(resultStrings(r), "|")
	if got != "1, 0.15, 0.1|2, 0, 0.15" {
		t.Errorf("rows = %q", got)
	}
	// Missing correlation is an error.
	if _, err := e.Exec("UPDATE PageRank SET rank = 0 FROM IntermediateTable"); err == nil {
		t.Error("UPDATE FROM without WHERE should fail")
	}
	if _, err := e.Exec("UPDATE PageRank SET rank = 0 FROM IntermediateTable WHERE PageRank.rank > IntermediateTable.rank"); err == nil {
		t.Error("UPDATE FROM without equality should fail")
	}
}

func TestDeleteAndTruncate(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, "CREATE TABLE t (k int)")
	mustExec(t, e, "INSERT INTO t VALUES (1), (2), (3), (4)")
	if n := mustExec(t, e, "DELETE FROM t WHERE k % 2 = 0"); n != 2 {
		t.Errorf("deleted = %d", n)
	}
	if n := mustExec(t, e, "TRUNCATE TABLE t"); n != 2 {
		t.Errorf("truncated = %d", n)
	}
	r := mustQuery(t, e, "SELECT COUNT(*) FROM t")
	if r.Rows[0][0].Int() != 0 {
		t.Error("table not empty")
	}
}

func TestDropTable(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, "CREATE TABLE t (k int)")
	mustExec(t, e, "DROP TABLE t")
	if _, err := e.Query("SELECT * FROM t"); err == nil {
		t.Error("dropped table still queryable")
	}
	if _, err := e.Exec("DROP TABLE t"); err == nil {
		t.Error("double drop")
	}
	mustExec(t, e, "DROP TABLE IF EXISTS t")
	mustExec(t, e, "CREATE TABLE t (k int)")
	if _, err := e.Exec("CREATE TABLE t (k int)"); err == nil {
		t.Error("duplicate create")
	}
	mustExec(t, e, "CREATE TABLE IF NOT EXISTS t (k int)")
}

func TestPageRankEndToEnd(t *testing.T) {
	e := newGraphEngine(t)
	r := mustQuery(t, e, `WITH ITERATIVE PageRank (Node, Rank, Delta)
		AS ( SELECT src, 0, 0.15
		     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
		 ITERATE
		  SELECT PageRank.node, PageRank.rank + PageRank.delta,
		    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
		  FROM PageRank
		    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
		    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
		  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
		 UNTIL 2 ITERATIONS )
		SELECT Node, Rank FROM PageRank ORDER BY Node`)
	want := map[int64]float64{1: 0.2775, 2: 0.21375, 3: 0.34125}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", resultStrings(r))
	}
	for _, row := range r.Rows {
		if math.Abs(row[1].Float()-want[row[0].Int()]) > 1e-12 {
			t.Errorf("node %d rank %v", row[0].Int(), row[1])
		}
	}
	if r.Columns[0] != "Node" || r.Columns[1] != "Rank" {
		t.Errorf("columns = %v", r.Columns)
	}
	st := e.Stats()
	if st.Iterations != 2 || st.Renames != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIterativeStatsBaselines(t *testing.T) {
	q := `WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 3 ITERATIONS) SELECT i FROM c`
	opt := New(Config{})
	base := New(Config{Baseline: OptRename})
	if _, err := opt.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Query(q); err != nil {
		t.Fatal(err)
	}
	so, sb := opt.Stats(), base.Stats()
	if so.Renames != 3 || so.MovedRows != 0 {
		t.Errorf("optimized stats: %+v", so)
	}
	if sb.Renames != 0 || sb.MovedRows != 3 {
		t.Errorf("baseline stats: %+v", sb)
	}
}

func TestDeltaIterationConfig(t *testing.T) {
	const q = `WITH ITERATIVE sssp (Node, Distance, Delta)
AS (SELECT src, 9999999, CASE WHEN src = 1 THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT sssp.node,
    LEAST(sssp.distance, sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sssp
   LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
   LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
  WHERE IncomingDistance.Delta != 9999999
  GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
 UNTIL 5 ITERATIONS)
SELECT Node, Distance FROM sssp ORDER BY Node`

	// A merge-path query the frontier license covers takes the delta
	// step by default; OptIncremental is the full-plan baseline.
	delta := newGraphEngine(t)
	full := New(Config{Partitions: 2, Baseline: OptIncremental})
	mustExec(t, full, "CREATE TABLE edges (src int, dst int, weight float)")
	mustExec(t, full, `INSERT INTO edges VALUES (1,2,0.5), (1,3,0.5), (2,3,1.0), (3,1,1.0)`)

	fr := mustQuery(t, full, q)
	dr := mustQuery(t, delta, q)
	if strings.Join(resultStrings(fr), "|") != strings.Join(resultStrings(dr), "|") {
		t.Errorf("the delta step changed the result:\n  full:  %v\n  delta: %v",
			resultStrings(fr), resultStrings(dr))
	}
	fs, ds := full.Stats(), delta.Stats()
	if fs.RiFullRows != 0 || fs.RiInputRows != 0 {
		t.Errorf("the OptIncremental baseline must not run delta steps: %+v", fs)
	}
	if ds.RiFullRows == 0 || ds.RiInputRows > ds.RiFullRows {
		t.Errorf("delta accounting: input=%d full=%d", ds.RiInputRows, ds.RiFullRows)
	}

	// EXPLAIN surfaces the restricted materialization and the decision
	// behind it, and the verifier accepts the program.
	out, err := delta.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"changed-row frontier", "Incremental sssp: licensed, delta step", "Verifier: OK"} {
		if !strings.Contains(out, frag) {
			t.Errorf("delta explain missing %q:\n%s", frag, out)
		}
	}
}

func TestRecursiveQueryEndToEnd(t *testing.T) {
	e := newGraphEngine(t)
	r := mustQuery(t, e, `WITH RECURSIVE reach (node) AS (
		SELECT 2 UNION SELECT edges.dst FROM reach JOIN edges ON edges.src = reach.node
	) SELECT COUNT(*) FROM reach`)
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("reachable = %v", r.Rows[0])
	}
}

func TestExplainModes(t *testing.T) {
	e := newGraphEngine(t)
	out, err := e.Explain("SELECT src FROM edges WHERE dst = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Scan edges") || !strings.Contains(out, "Filter") {
		t.Errorf("plain explain:\n%s", out)
	}
	out, err = e.Explain(`WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 3 ITERATIONS) SELECT i FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Step 1: Materialize c") || !strings.Contains(out, "Rename") {
		t.Errorf("iterative explain:\n%s", out)
	}
	// EXPLAIN prefix works too.
	out2, err := e.Explain("EXPLAIN SELECT src FROM edges")
	if err != nil || !strings.Contains(out2, "Scan edges") {
		t.Errorf("EXPLAIN prefix: %v\n%s", err, out2)
	}
	if _, err := e.Explain("DROP TABLE edges"); err == nil {
		t.Error("EXPLAIN of DDL should fail")
	}
}

func TestExplainReportsVerifier(t *testing.T) {
	const q = `WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 3 ITERATIONS) SELECT i FROM c`

	e := newGraphEngine(t)
	out, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Verifier: OK") {
		t.Errorf("explain misses the verifier verdict:\n%s", out)
	}
}

// TestExplainVerifiesClaimsItDerives seeds the partition-claim mutant on
// a volcano program, whose rewrite records no claim and leaves EXPLAIN
// to derive them: a claim widened after that derivation — hash(k)
// recorded as hash(k, v) — must still reach the verifier through the
// EXPLAIN path and be reported as unsound, while the claims as derived
// verify clean.
func TestExplainVerifiesClaimsItDerives(t *testing.T) {
	const q = `WITH ITERATIVE c (k, v) AS (
		SELECT src, dst FROM edges
		ITERATE SELECT c.k, e.dst FROM c JOIN edges AS e ON c.k = e.src
		UNTIL 2 ITERATIONS) SELECT k, v FROM c`
	e := newGraphEngine(t)
	rewrite := func() (*core.Program, *ast.SelectStmt) {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*ast.SelectStmt)
		opts := e.coreOptions()
		opts.Verify = false
		prog, err := core.Rewrite(sel, e.rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prog.DistProps != nil {
			t.Fatal("the rewrite derived partition claims for a volcano program")
		}
		return prog, sel
	}

	prog, sel := rewrite()
	if out, ok := e.explainProgram(prog, sel); !ok || !strings.Contains(out, "Distribution step 1: ") {
		t.Fatalf("EXPLAIN of the unmutated program:\n%s", out)
	}

	prog, sel = rewrite()
	prog.DeriveDistProps() // what EXPLAIN derives; it keeps claims already there
	mutated := false
	for i, c := range prog.DistProps {
		if c.Prop.Kind == distprop.KindHash {
			prog.DistProps[i].Prop = distprop.Hash(append(append([]int(nil), c.Prop.Cols...), 1)...)
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no hash claim to widen")
	}
	out, ok := e.explainProgram(prog, sel)
	if ok || !strings.Contains(out, "["+verify.ClassUnsoundDistProp+"]") {
		t.Errorf("EXPLAIN did not report the widened claim as %s:\n%s", verify.ClassUnsoundDistProp, out)
	}
}

func TestExecScript(t *testing.T) {
	e := New(Config{})
	err := e.ExecScript(`
		CREATE TABLE t (k int);
		INSERT INTO t VALUES (1), (2);
		SELECT * FROM t;
		UPDATE t SET k = k * 10;
	`)
	if err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, e, "SELECT SUM(k) FROM t")
	if r.Rows[0][0].Int() != 30 {
		t.Errorf("sum = %v", r.Rows[0])
	}
	if err := e.ExecScript("BOGUS;"); err == nil {
		t.Error("bad script should fail")
	}
}

func TestBulkInsert(t *testing.T) {
	e := New(Config{})
	mustExec(t, e, "CREATE TABLE t (k int, v float)")
	rows := []Row{
		{NewInt(1), NewInt(2)}, // int castable to float
		{NewInt(3), NewFloat(4.5)},
	}
	if err := e.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	n, err := e.TableRowCount("t")
	if err != nil || n != 2 {
		t.Errorf("rows = %d, %v", n, err)
	}
	if err := e.BulkInsert("missing", rows); err == nil {
		t.Error("bulk insert into missing table")
	}
	if err := e.BulkInsert("t", []Row{{NewInt(1)}}); err == nil {
		t.Error("bulk insert arity")
	}
	if _, err := e.TableRowCount("missing"); err == nil {
		t.Error("row count of missing table")
	}
}

func TestTables(t *testing.T) {
	e := newGraphEngine(t)
	names := e.Tables()
	if len(names) != 2 || names[0] != "edges" || names[1] != "vertexStatus" {
		t.Errorf("tables = %v", names)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newGraphEngine(t)
	st := e.Stats()
	if st.Statements != 4 {
		t.Errorf("statements = %d", st.Statements)
	}
	if st.TxnCommitted != 4 || st.WALRecords == 0 || st.LocksAcquired != 4 {
		t.Errorf("txn stats: %+v", st)
	}
	mustQuery(t, e, "SELECT * FROM edges")
	if e.Stats().Queries != 1 {
		t.Error("query counter")
	}
	e.ResetStats()
	st = e.Stats()
	if st.Queries != 0 || st.WALRecords != 0 || st.WALBytes != 0 {
		t.Errorf("reset failed: %+v", st)
	}
}

func TestQueryErrors(t *testing.T) {
	e := New(Config{})
	if _, err := e.Query("CREATE TABLE t (k int)"); err == nil {
		t.Error("Query of DDL should fail")
	}
	if _, err := e.Exec("SELECT 1"); err == nil {
		t.Error("Exec of SELECT should fail")
	}
	if _, err := e.Query("SELECT FROM"); err == nil {
		t.Error("parse error")
	}
	if _, err := e.Exec("not sql at all"); err == nil {
		t.Error("parse error in Exec")
	}
}

func TestResultString(t *testing.T) {
	e := newGraphEngine(t)
	r := mustQuery(t, e, "SELECT src, dst FROM edges WHERE src = 1 ORDER BY dst")
	out := r.String()
	if !strings.Contains(out, "src") || !strings.Contains(out, "---") {
		t.Errorf("result table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

// TestConcurrentQueries runs one shape from eight goroutines, each with
// its own start value: they share the prepared program, and each must
// get its own answer.
func TestConcurrentQueries(t *testing.T) {
	e := newGraphEngine(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			res, err := e.Query(fmt.Sprintf(`WITH ITERATIVE c (i) AS (SELECT %d ITERATE SELECT i + 1 FROM c UNTIL 3 ITERATIONS) SELECT i FROM c`, i))
			if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i+3)) {
				err = fmt.Errorf("start %d: got %v, want %d", i, res.Rows, i+3)
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDefaultPartitions(t *testing.T) {
	e := New(Config{Partitions: 0})
	if e.cfg.Partitions != 4 {
		t.Errorf("default partitions = %d", e.cfg.Partitions)
	}
}

// TestEveryConfigKnobReachesOptions: a Config field that reaches
// neither the rewrite nor the statement's context is a public setting
// that silently does nothing. Each field in turn is set away from its
// zero value and must change what coreOptions hands the rewrite or
// arm the deadline armTimeout puts on the context — which a field that
// is read and then dropped does not do either.
func TestEveryConfigKnobReachesOptions(t *testing.T) {
	zero := (&Engine{}).coreOptions()
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		var c Config
		setNonZero(t, reflect.ValueOf(&c).Elem().Field(i))
		e := &Engine{cfg: c}
		ctx, cancel := e.armTimeout(context.Background())
		_, deadline := ctx.Deadline()
		cancel()
		if got := e.coreOptions(); reflect.DeepEqual(got, zero) && !deadline {
			t.Errorf("Config.%s reaches neither core.Options nor the statement deadline: coreOptions returns the zero configuration's %+v", typ.Field(i).Name, got)
		}
	}
}

// TestReadmeConfigBlockNamesEveryField: the dbspinner.Config{…} block
// in README.md names every field of Config and no field Config lacks.
func TestReadmeConfigBlockNamesEveryField(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "\ndbspinner.Config{\n")
	if !ok {
		t.Fatal("README.md has no dbspinner.Config{ block")
	}
	block, _, _ = strings.Cut(block, "\n}")
	var named []string
	for _, line := range strings.Split(block, "\n") {
		// A field of Config is indented one level; a deeper line is a
		// field of a nested literal.
		if field, _, ok := strings.Cut(strings.TrimPrefix(line, "    "), ":"); ok && !strings.HasPrefix(field, " ") {
			named = append(named, field)
		}
	}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		fields = append(fields, f.Name)
	}
	slices.Sort(named)
	slices.Sort(fields)
	if !slices.Equal(named, fields) {
		t.Errorf("README.md's Config block names %v; Config has %v", named, fields)
	}
}

// setNonZero sets v, and for a struct every field of it, to a value
// that is not its zero value.
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setNonZero(t, v.Field(i))
		}
	default:
		t.Fatalf("setNonZero: no non-zero value known for a %s", v.Type())
	}
}
