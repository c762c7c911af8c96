package core

import (
	"fmt"
	"strings"
	"testing"

	"dbspinner/internal/faultinject"
	"dbspinner/internal/sqltypes"
)

// snapshotQuery is a licensed maintenance query whose loop body reads the
// CTE once, as its outer reference, and joins nothing: no run memo entry
// indexes a CTE table, so only the loop's hold, and a checkpoint's, keep
// the snapshot its next iteration diffs against. The first iteration
// reads the whole CTE (the base term's table, which no checkpoint clones)
// and the ones after restrict, since fewer keys change each time.
const snapshotQuery = `WITH ITERATIVE c (node, val) AS (
  SELECT src, src % 7 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE SELECT c.node, MIN(CASE WHEN c.val < 3 THEN c.val + 1 ELSE c.val END)
  FROM c GROUP BY c.node
 UNTIL 6 ITERATIONS) SELECT node, val FROM c ORDER BY node`

// checkSnapshotKept runs snapshotQuery with arm's mutant armed (nil:
// none) clean, and faulted at the loop step of its second iteration, which
// retries from the first's back-edge checkpoint: both must feed Ri the
// rows an unarmed clean run does, and return its rows. A snapshot handed
// back before its diff reads as empty, so every key differs and Ri reads
// the whole CTE. It says what differs, "" when nothing does.
func checkSnapshotKept(t *testing.T, arm func() func()) string {
	t.Helper()
	defer sqltypes.Poison()()
	rt := graphRT(t, 1)
	run := func(faults []faultinject.Fault) (string, Stats) {
		t.Helper()
		opts := DefaultOptions()
		opts.MaxRetries, opts.FaultSchedule = 1, faults
		prog, err := Rewrite(mustParse(t, snapshotQuery), rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		rows, err := prog.Run(rt, &st)
		if err != nil {
			t.Fatal(err)
		}
		if faults != nil && st.Retries != 1 {
			t.Fatalf("%d retries, want the fault's one", st.Retries)
		}
		return strings.Join(rowStrs(rows), "\n"), st
	}
	wantRows, want := run(nil)
	if want.AggInputRows >= want.AggFullRows {
		t.Fatalf("Ri was fed %d of %d rows: no iteration restricted", want.AggInputRows, want.AggFullRows)
	}
	if arm != nil {
		defer arm()()
	}
	for _, c := range []struct {
		name   string
		faults []faultinject.Fault
	}{
		{"clean", nil},
		// Steps 1 and 2 run once, then four per iteration: the 10th is the
		// second iteration's loop step.
		{"retried", []faultinject.Fault{{Point: faultinject.PointStep, Hit: 10, Mode: faultinject.ModeError}}},
	} {
		rows, st := run(c.faults)
		if rows != wantRows {
			return c.name + ": the rows differ from an unarmed clean run's"
		}
		if st.AggInputRows != want.AggInputRows {
			return fmt.Sprintf("%s: Ri was fed %d rows, an unarmed clean run %d", c.name, st.AggInputRows, want.AggInputRows)
		}
	}
	return ""
}

// TestMaintenanceSnapshotIsKept: the loop holds its snapshot until the
// next one replaces it, and a checkpoint holds the one it captured, so a
// clean and a retried run diff every iteration against the rows the
// snapshot was computed from.
func TestMaintenanceSnapshotIsKept(t *testing.T) {
	if d := checkSnapshotKept(t, nil); d != "" {
		t.Error(d)
	}
}

// TestMaintenanceSnapshotCatchesMutants seeds a snapshot the loop does not
// hold, which the rename hands back, and one a checkpoint does not hold,
// which the second iteration lets go before the retry restores it: the
// check must see each.
func TestMaintenanceSnapshotCatchesMutants(t *testing.T) {
	for _, name := range []string{"unheld-snapshot", "unheld-checkpoint"} {
		t.Run(name, func(t *testing.T) {
			d := checkSnapshotKept(t, func() func() { return seedMutant(name) })
			if d == "" {
				t.Fatal("the mutant passes the check")
			}
			t.Log("caught: " + d)
		})
	}
}
