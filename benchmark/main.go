// Command benchmark is the repository's regression benchmark: six
// workloads, each measured end to end through the engine's public API
// and, in a second traced pass, layer by layer from outside. See
// README.md in this directory; BENCHMARK.json at the repository root
// declares the workloads and metrics it prints.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares one end-to-end metric. All are lower-is-better;
// bound is the share of the baseline's median by which the metric may
// worsen before it counts as a regression.
type metricDef struct {
	name  string
	unit  string
	bound float64
}

var endToEndMetrics = []metricDef{
	{"op_ms_p50", "ms", 0.2},
	{"op_ms_p90", "ms", 0.25},
	{"alloc_mb_per_op", "MB", 0.03},
	{"allocs_per_op", "count", 0.03},
	{"setup_s", "s", 0.25},
}

// options are the command's flags.
type options struct {
	workloads []*workload
	seed      int64
	seconds   float64
	runs      int
	quick     bool
	traceDir  string
}

// header identifies the build and the machine a result file came from.
type header struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Quick      bool    `json:"quick"`
}

// workloadReport is one workload's part of a result file.
type workloadReport struct {
	Name string `json:"name"`
	// Ops has, per end-to-end run and then for the traced pass, the
	// number of ops attempted.
	Ops      []int              `json:"ops"`
	Failed   int                `json:"failed"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]metric  `json:"per_layer"`
}

// report is the result file -o writes and -compare reads.
type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// runOne makes one pass over one workload in this process.
func runOne(c runConfig) (result, error) {
	if c.trace {
		return runTraced(c)
	}
	return runEndToEnd(c)
}

// spawn makes one pass in a child process of this binary, so that every
// pass starts from a fresh heap and has a peak RSS of its own. The
// child's report lines are passed through; its last line is the result.
func spawn(c runConfig) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", c.w.name,
		"-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[c.trace],
		"-tracedir", c.traceDir,
	}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines[:len(lines)-1] {
		fmt.Println("  " + line)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, errors.Join(runErr, fmt.Errorf("%s: no result line: %w", c.w.name, err))
	}
	return res, runErr
}

// runAll makes, per workload, opts.runs end-to-end passes and one traced
// pass through pass, prints both metric tables and returns the report.
func runAll(opts options, pass func(runConfig) (result, error)) (report, error) {
	rep := report{Header: header{
		GitRev: gitRev(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opts.seed, Seconds: opts.seconds, Runs: opts.runs, Quick: opts.quick,
	}}
	var errs []error
	for _, w := range opts.workloads {
		fmt.Printf("== %s: %s\n", w.name, w.why)
		wr := workloadReport{Name: w.name, EndToEnd: map[string]summary{}}
		c := runConfig{w: w, seed: opts.seed, seconds: opts.seconds, quick: opts.quick, traceDir: opts.traceDir}
		values := map[string][]float64{}
		for i := 0; i < opts.runs; i++ {
			res, err := pass(c)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
			}
			wr.Ops = append(wr.Ops, res.Attempted)
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		c.trace = true
		res, err := pass(c)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s (traced): %w", w.name, err))
		}
		wr.Ops = append(wr.Ops, res.Attempted)
		wr.Failed += res.Failed
		wr.PerLayer = res.Metrics

		fmt.Printf("  end to end, median [q1 .. q3] of %d runs:\n", opts.runs)
		for _, def := range endToEndMetrics {
			s := summarize(values[def.name], def.unit)
			wr.EndToEnd[def.name] = s
			fmt.Printf("    %-26s %14.4f %-5s [%.4f .. %.4f]  bound %.0f%%\n", def.name, s.Median, s.Unit, s.Q1, s.Q3, 100*def.bound)
		}
		fmt.Printf("    %-26s %14d of %d ops\n", "failed", wr.Failed, sum(wr.Ops))
		fmt.Println("  per layer, traced pass:")
		names := make([]string, 0, len(wr.PerLayer))
		for name := range wr.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %-26s %14.4f %s\n", name, wr.PerLayer[name].Value, wr.PerLayer[name].Unit)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, errors.Join(errs...)
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// compare prints one row per workload and end-to-end metric of two
// result files and reports whether any row is worse or unresolved.
func compare(a, b report) (clean bool) {
	clean = true
	fmt.Printf("a: %s seed %d, %d runs of %gs   b: %s seed %d, %d runs of %gs\n",
		a.Header.GitRev, a.Header.Seed, a.Header.Runs, a.Header.Seconds,
		b.Header.GitRev, b.Header.Seed, b.Header.Runs, b.Header.Seconds)
	fmt.Printf("%-10s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	other := map[string]workloadReport{}
	for _, w := range b.Workloads {
		other[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			continue
		}
		for _, def := range endToEndMetrics {
			sa, sb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			v := verdict(sa, sb, def.bound)
			if v == "worse" || v == "unresolved" {
				clean = false
			}
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / sa.Median
			}
			fmt.Printf("%-10s %-16s %14.4f %14.4f %+7.2f%% %5.0f%%  %s\n", wa.Name, def.name, sa.Median, sb.Median, change, 100*def.bound, v)
		}
		if wb.Failed > wa.Failed {
			clean = false
			fmt.Printf("%-10s %-16s %14d %14d %8s %6s  worse\n", wa.Name, "failed ops", wa.Failed, wb.Failed, "", "")
		}
	}
	return clean
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		names    = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed     = flag.Int64("seed", 42, "seeds the graph's ids and row order and the adhoc literals")
		seconds  = flag.Float64("seconds", 10, "how long each pass measures")
		trace    = flag.Int("trace", -1, "make one pass over one workload and print its result line: 0 end to end, 1 traced")
		runs     = flag.Int("runs", 1, "end-to-end passes per workload; the median and quartiles are reported")
		quick    = flag.Bool("quick", false, "smoke run: a twentieth of the measuring time, one set-up, one warm-up op")
		out      = flag.String("o", "", "write the result file here, for -compare")
		traceDir = flag.String("tracedir", "benchmark/out", "where the traced pass writes trace-<workload>.json")
		cmp      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "benchmark: built with -race; the race detector slows every op several times over, so no number would mean anything")
		return 2
	}
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		a, errA := readReport(flag.Arg(0))
		b, errB := readReport(flag.Arg(1))
		if err := errors.Join(errA, errB); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !compare(a, b) {
			return 1
		}
		return 0
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	opts := options{workloads: workloads, seed: *seed, seconds: *seconds, runs: *runs, quick: *quick, traceDir: *traceDir}
	if *names != "" {
		opts.workloads = nil
		for _, name := range strings.Split(*names, ",") {
			w := workloadByName(name)
			if w == nil {
				fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", name)
				return 2
			}
			opts.workloads = append(opts.workloads, w)
		}
	}
	if opts.quick && *trace < 0 {
		opts.seconds /= 20 // spawn hands the shortened time to its children
	}

	if *trace >= 0 {
		// One pass, one workload, one result line: what the acceptance
		// driver and spawn run.
		if len(opts.workloads) != 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -trace needs exactly one -workload")
			return 2
		}
		res, err := runOne(runConfig{w: opts.workloads[0], seed: opts.seed, seconds: opts.seconds, trace: *trace == 1, quick: opts.quick, traceDir: opts.traceDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			if res.Metrics == nil {
				return 1
			}
		}
		w := bufio.NewWriter(os.Stdout)
		if err := json.NewEncoder(w).Encode(res); err != nil || w.Flush() != nil {
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	rep, err := runAll(opts, spawn)
	if *out != "" {
		data, merr := json.MarshalIndent(rep, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*out, data, 0o644)
		}
		err = errors.Join(err, merr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
