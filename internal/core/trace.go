package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dbspinner/internal/mpp"
)

// IterationTrace is the runtime trace of one traced execution
// (Options.Trace, Config.TraceIterations, EXPLAIN ANALYZE): one span
// per loop iteration — wall clock, rows written to working tables, the
// delta-frontier size the iteration's identification pass found, the
// rows the executors scanned and inserted into join hash indexes, and
// which form of Ri an incremental step chose with the rows it fed —
// and under Parallel the skew of its hash exchanges — plus the
// cumulative wall clock of every step. It is
// captured on the same cooperative checkpoints the cancellation
// plumbing polls, so tracing adds no extra synchronization points;
// when tracing is off the execution path allocates nothing and never
// reads the clock.
type IterationTrace struct {
	// Spans holds one entry per completed loop iteration, in order.
	Spans []IterationSpan
	// Steps holds the cumulative timing of each program step, indexed
	// by 0-based step position (entry i is step i+1).
	Steps []StepTiming
	// TotalWall is the wall clock of the whole execution, including
	// the final query; FinalRows is the row count it returned.
	TotalWall time.Duration
	FinalRows int
	// Retries holds one entry per retry (Options.MaxRetries), in
	// the order the retries fired. Spans of an abandoned attempt are
	// rewound at restore, so Spans only ever describes work that
	// contributed to the final result; Retries records what it cost to
	// get there.
	Retries []RetryRecord

	// mu guards the fields the recording methods write. last is the
	// run's Stats at the previous iteration boundary; a span reports the
	// counters' growth since then. parts is the run's partition count,
	// for the exchange skew.
	mu       sync.Mutex
	started  time.Time
	boundary time.Time
	last     Stats
	parts    int
	// ri is the running iteration's Ri decision, waiting for its span.
	ri string
}

// IterationSpan is the trace record of one loop iteration.
type IterationSpan struct {
	// Iteration is the 1-based iteration number.
	Iteration int
	// Wall is the elapsed time since the previous iteration boundary
	// (the first span also covers the pre-loop steps).
	Wall time.Duration
	// Rows is the number of rows written to working tables during the
	// iteration.
	Rows int64
	// Frontier is the changed-row count the iteration's identification
	// pass found — the delta frontier driving UNTIL n UPDATES
	// termination and delta iteration (0 on the rename path, which has
	// no identification pass).
	Frontier int64
	// Scanned and Indexed are the rows read from tables and the rows
	// inserted into join hash indexes during the iteration (the growth of
	// exec.Stats.RowsScanned and RowsIndexed): a build side the loop does
	// not change shows in the first span only.
	Scanned, Indexed int64
	// Fed and Full are the CTE rows the iteration's incremental step fed
	// Ri's outer reference and the rows the full plan reads there (the
	// growth of Stats.RiInputRows+AggInputRows and RiFullRows+
	// AggFullRows); both 0 when the loop has no such step.
	Fed, Full int64
	// Ri says which form of Ri that step chose and, for the full plan,
	// the one reason: "restricted", "full: first iteration", "full: dense
	// frontier" (more than half the keys affected), "full: not
	// certified" (duplicate keys, restricted output outside the
	// frontier), "full: degraded". Empty when the loop has no such step.
	Ri string
	// Skew is the exchange skew of the iteration's hash exchanges under
	// Parallel (mpp.Skew: the fullest destination's share of the routed
	// rows times the partition count, 1 when they spread evenly); 0 when
	// none ran.
	Skew float64
}

// RetryRecord is the trace record of one checkpoint retry.
type RetryRecord struct {
	// Iteration is the 1-based iteration being re-attempted (the
	// iteration the failed attempt was executing); for a failure of Qf,
	// the iterations completed.
	Iteration int
	// Step is the 1-based step index whose failure triggered the retry,
	// 0 for Qf.
	Step int
	// Rung names the plan variant the retry runs under ("same-plan" or
	// "volcano") — the graceful-degradation ladder position.
	Rung string
	// Err is the failure that was retried, rendered.
	Err string
}

// StepTiming is the cumulative execution record of one program step.
type StepTiming struct {
	// Runs counts how many times the step executed (loop-body steps
	// run once per iteration).
	Runs int64
	// Wall is the total time spent inside the step's Run.
	Wall time.Duration
}

func newIterationTrace(steps, parts int) *IterationTrace {
	now := time.Now()
	return &IterationTrace{Steps: make([]StepTiming, steps), started: now, boundary: now, parts: parts}
}

// noteIteration records one completed iteration at its loop boundary.
// now holds the cumulative counters; the span stores their growth since
// the previous boundary.
func (t *IterationTrace) noteIteration(iter int, now *Stats, frontier int64) {
	at := time.Now()
	t.mu.Lock()
	l := &t.last
	t.Spans = append(t.Spans, IterationSpan{
		Iteration: iter,
		Wall:      at.Sub(t.boundary),
		Rows:      now.UpdatedRows - l.UpdatedRows,
		Frontier:  frontier,
		Scanned:   now.RowsScanned - l.RowsScanned,
		Indexed:   now.RowsIndexed - l.RowsIndexed,
		Fed:       now.RiInputRows + now.AggInputRows - l.RiInputRows - l.AggInputRows,
		Full:      now.RiFullRows + now.AggFullRows - l.RiFullRows - l.AggFullRows,
		Ri:        t.ri,
		Skew:      mpp.Skew(now.RowsToBusiest-l.RowsToBusiest, now.RowsRouted-l.RowsRouted, t.parts),
	})
	t.ri = ""
	t.last = *now
	t.boundary = at
	t.mu.Unlock()
}

// noteRi records which form of Ri the running iteration's incremental
// step chose; the last word before the boundary stands (a splice that
// cannot certify the restricted output overrides "restricted").
func (t *IterationTrace) noteRi(ri string) {
	t.mu.Lock()
	t.ri = ri
	t.mu.Unlock()
}

// noteStep accumulates one step execution's wall clock.
func (t *IterationTrace) noteStep(step int, d time.Duration) {
	t.mu.Lock()
	if step >= 0 && step < len(t.Steps) {
		t.Steps[step].Runs++
		t.Steps[step].Wall += d
	}
	t.mu.Unlock()
}

// noteRetry records one checkpoint retry.
func (t *IterationTrace) noteRetry(iter, step int, rung string, err error) {
	t.mu.Lock()
	t.Retries = append(t.Retries, RetryRecord{Iteration: iter, Step: step, Rung: rung, Err: err.Error()})
	t.mu.Unlock()
}

// mark returns the restore point of the trace — the span count and the
// counters at the last boundary — for checkpoint capture.
func (t *IterationTrace) mark() (spans int, last Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.Spans), t.last
}

// rewind discards the spans of an abandoned attempt, restoring the
// trace to a captured mark. The iteration boundary resets to now: the
// retried iteration's span will time the retry that produced it.
func (t *IterationTrace) rewind(spans int, last Stats) {
	t.mu.Lock()
	if spans >= 0 && spans <= len(t.Spans) {
		t.Spans = t.Spans[:spans]
	}
	t.last = last
	t.ri = ""
	t.boundary = time.Now()
	t.mu.Unlock()
}

// finish stamps the total wall clock and final row count.
func (t *IterationTrace) finish(rows int) {
	t.mu.Lock()
	t.TotalWall = time.Since(t.started)
	t.FinalRows = rows
	t.mu.Unlock()
}

// Render prints the trace the way EXPLAIN ANALYZE shows it: one line
// per iteration, one line per executed step, and a total.
func (t *IterationTrace) Render() string {
	var b strings.Builder
	for _, s := range t.Spans {
		fmt.Fprintf(&b, "Iteration %d: %s wall, %d rows, frontier %d, scanned %d, indexed %d",
			s.Iteration, s.Wall, s.Rows, s.Frontier, s.Scanned, s.Indexed)
		if s.Ri != "" {
			fmt.Fprintf(&b, ", fed %d of %d (%s)", s.Fed, s.Full, s.Ri)
		}
		b.WriteString(".")
		if s.Skew > 0 {
			fmt.Fprintf(&b, " Exchange skew %.2f.", s.Skew)
		}
		b.WriteString("\n")
	}
	for _, r := range t.Retries {
		fmt.Fprintf(&b, "Retry iteration %d: step %d failed (%s), re-ran on the %s plan.\n", r.Iteration, r.Step, r.Err, r.Rung)
	}
	for i, st := range t.Steps {
		if st.Runs == 0 {
			continue
		}
		fmt.Fprintf(&b, "Step %d timing: %d runs, %s total.\n", i+1, st.Runs, st.Wall)
	}
	fmt.Fprintf(&b, "Total: %s wall, %d rows, %d iterations.\n", t.TotalWall, t.FinalRows, len(t.Spans))
	return b.String()
}
