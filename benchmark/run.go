package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"dbspinner"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig selects one run: a workload, its seed, how long to measure
// and which of the two passes to make.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// quick makes a smoke run: one set-up, one warm-up op, and a single
	// timed op if --seconds is over by then.
	quick bool
	// traceDir is where the traced pass writes its span file; empty
	// writes none.
	traceDir string
}

func (c runConfig) warmup() int {
	if c.quick {
		return 1
	}
	return c.w.warmup
}

func (c runConfig) minOps() int {
	if c.quick {
		return 1
	}
	return minOps
}

const (
	// setupRepeats is how often a run sets up from scratch; setup_s is
	// the fastest, which no slow start can move.
	setupRepeats = 3
	// minOps is the fewest timed ops a run makes however short --seconds
	// is.
	minOps = 3
	// A chunk is the ops run between two reads of the allocation
	// counters: at most chunkOps, and no more once chunkTime has passed.
	// The texts of a chunk are built, and the calibration kernel is run,
	// before the first read, so neither counts as the engine's allocation.
	chunkOps  = 32
	chunkTime = 60 * time.Millisecond
	// setupKernelRuns is how often the calibration kernel runs before the
	// first set-up and after each.
	setupKernelRuns = 4
)

// env is a loaded engine plus the bookkeeping of the ops run on it.
type env struct {
	w  *workload
	in *input
	e  *dbspinner.Engine
	// refs holds, per variant, the digest of the op that was checked
	// against the oracles; every later op must match it.
	refs      []digest
	results   []*dbspinner.Result
	attempted int
	failed    int
	firstErr  error
}

// load creates an engine holding the input's two tables.
func load(w *workload, in *input) (*dbspinner.Engine, error) {
	e := dbspinner.New(w.cfg)
	if _, err := e.Exec(createEdges); err != nil {
		return nil, err
	}
	if err := e.BulkInsert("edges", in.g.edgeRows()); err != nil {
		return nil, err
	}
	if _, err := e.Exec(createStatus); err != nil {
		return nil, err
	}
	if err := e.BulkInsert("vertexStatus", in.g.statusRows()); err != nil {
		return nil, err
	}
	return e, nil
}

// setUp generates the input, loads an engine and runs the warm-up ops.
// The returned duration is one sample of setup_s.
func setUp(w *workload, seed int64, warmup int) (*env, time.Duration, error) {
	start := time.Now()
	in := newInput(w.nodes, seed)
	e, err := load(w, in)
	if err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	v := &env{w: w, in: in, e: e, refs: make([]digest, w.variants), results: make([]*dbspinner.Result, 0, 8)}
	for round := 0; round < warmup; round++ {
		if err := v.exec(w.statements(in, round, false)); err != nil {
			return nil, 0, fmt.Errorf("warm-up op %d: %w", round, err)
		}
	}
	return v, time.Since(start), nil
}

// exec sends one op's statements through the engine's public API and
// keeps the query results in v.results. It first checkpoints the WAL
// and zeroes the counters, as a server's checkpointer would between
// requests: the log is one in-memory buffer that otherwise grows by half
// a megabyte per proc-dml op, so that an op's cost would depend on how
// many ran before it, and with it on how fast the machine is.
func (v *env) exec(stmts []stmt) error {
	v.e.ResetStats()
	v.results = v.results[:0]
	for _, s := range stmts {
		res, err := v.send(s)
		if err != nil {
			return err
		}
		if res != nil {
			v.results = append(v.results, res)
		}
	}
	return nil
}

// send passes one statement to the engine entry point of its kind; the
// result is nil for a statement that is not a query.
func (v *env) send(s stmt) (*dbspinner.Result, error) {
	if s.kind == kindQuery {
		return v.e.Query(s.sql)
	}
	_, err := v.e.Exec(s.sql)
	return nil, err
}

// timed runs one op through exec, checks its answer and returns its wall
// in milliseconds.
func (v *env) timed(round int, stmts []stmt) float64 {
	t0 := time.Now()
	err := v.exec(stmts)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	v.attempted++
	if err != nil {
		v.fail(fmt.Errorf("round %d: %w", round, err))
	} else {
		v.compare(round)
	}
	return ms
}

// digestResults fingerprints the results of the last exec.
func (v *env) digestResults() digest {
	var d digest
	for _, res := range v.results {
		d.add(res.Rows)
	}
	return d
}

func (v *env) fail(err error) {
	v.failed++
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// verify runs one op per variant with the oracle checks on and records
// its digest as the reference for the timed ops.
func (v *env) verify(firstRound int) {
	for round := firstRound; round < firstRound+v.w.variants; round++ {
		v.attempted++
		stmts := v.w.statements(v.in, round, true)
		if err := v.exec(stmts); err != nil {
			v.fail(fmt.Errorf("checked op (round %d): %w", round, err))
			continue
		}
		q := 0
		for _, s := range stmts {
			if s.kind != kindQuery {
				continue
			}
			if s.check != nil {
				if err := s.check(v.results[q].Rows); err != nil {
					v.fail(fmt.Errorf("checked op (round %d): %w", round, err))
				}
			}
			q++
		}
		v.refs[round%v.w.variants] = v.digestResults()
	}
}

// compare checks the last exec's results against the reference of its
// variant.
func (v *env) compare(round int) {
	got, want := v.digestResults(), v.refs[round%v.w.variants]
	if got != want {
		v.fail(fmt.Errorf("round %d: %d rows with checksum %x, the checked op had %d rows with checksum %x",
			round, got.rows, got.sum, want.rows, want.sum))
	}
}

// runEndToEnd is the end-to-end pass: closed loop, one client, tracing
// off, only the root package's public API.
func runEndToEnd(c runConfig) (result, error) {
	w := c.w
	repeats, warmup := setupRepeats, c.warmup()
	if c.quick {
		repeats = 1
	}
	cal := newCalibrator()
	var v *env
	setups := make([]float64, 0, repeats)
	cal.runs(setupKernelRuns)
	for i := 0; i < repeats; i++ {
		var d time.Duration
		var err error
		if v, d, err = setUp(w, c.seed, warmup); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		cal.runs(setupKernelRuns)
	}
	timedFrom := len(cal.walls)
	// Interference only adds time, and a burst of it lasts about as long as
	// a set-up, so that it would move the median of three. setup_s is the
	// fastest set-up at the speed of the kernel runs that were as lucky.
	setupSpeed := kernelRefMS / percentile(cal.walls[:timedFrom], 25)
	v.verify(warmup)
	round := warmup + w.variants

	samples := make([]float64, 0, 1<<16)
	var chunkEnds []int // samples so far at the end of each chunk
	ops := make([][]stmt, chunkOps)
	var bytes, mallocs uint64
	var m0, m1 runtime.MemStats
	budget := time.Duration(c.seconds * float64(time.Second))
	runtime.GC()
	start := time.Now()
	for done := false; !done; {
		for i := range ops {
			ops[i] = w.statements(v.in, round+i, false)
		}
		cal.run()
		runtime.ReadMemStats(&m0)
		chunkStart := time.Now()
		for i := range ops {
			samples = append(samples, v.timed(round, ops[i]))
			round++
			if time.Since(start) >= budget && len(samples) >= c.minOps() {
				done = true
				break
			}
			if time.Since(chunkStart) >= chunkTime {
				break
			}
		}
		runtime.ReadMemStats(&m1)
		chunkEnds = append(chunkEnds, len(samples))
		bytes += m1.TotalAlloc - m0.TotalAlloc
		mallocs += m1.Mallocs - m0.Mallocs
	}

	n := float64(len(samples))
	p50, p90, windows := steadyPercentiles(samples, chunkEnds, cal.walls[timedFrom:])
	res := result{
		Correct:   v.failed == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics: map[string]metric{
			"op_ms_p50":       {p50, "ms"},
			"op_ms_p90":       {p90, "ms"},
			"alloc_mb_per_op": {float64(bytes) / n / 1e6, "MB"},
			"allocs_per_op":   {float64(mallocs) / n, "count"},
			"setup_s":         {slices.Min(setups) * setupSpeed, "s"},
		},
	}
	fmt.Printf("%s: %d timed ops in %.2f s; op_ms_p50 and op_ms_p90 are over %d samples in %d windows, setup_s is the fastest of %d set-ups\n",
		w.name, len(samples), time.Since(start).Seconds(), len(samples), windows, len(setups))
	fmt.Printf("%s: as measured, op wall p50 %.3f ms, p90 %.3f ms, set-up %.3f s; machine speed %.3f while timing, %.3f while setting up (kernel p50 over %d runs, p25 over %d)\n",
		w.name, percentile(samples, 50), percentile(samples, 90), slices.Min(setups), cal.speed(timedFrom), setupSpeed, len(cal.walls)-timedFrom, timedFrom)
	return res, v.firstErr
}
