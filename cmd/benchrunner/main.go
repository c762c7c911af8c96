// Command benchrunner regenerates the tables and figures of the
// paper's evaluation (§VII) and prints them in the paper's format.
//
// Usage:
//
//	benchrunner                      # run every experiment
//	benchrunner -exp fig8,fig10      # run a subset
//	benchrunner -preset pokec-small  # change the dataset
//	benchrunner -iterations 25       # change the loop bound
//	benchrunner -scale 2000          # override the node count
//	benchrunner -md results.md       # also write Markdown
//	benchrunner -exp fig8 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                                 # profile the run (go tool pprof -top cpu.pb.gz)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dbspinner/internal/bench"
)

func main() {
	var (
		expList    = flag.String("exp", "all", "comma-separated experiments: table1,fig8,fig9,fig10,fig11,middleware,parallel,pruning,trace,shuffle,faults ('smoke' expands to the CI smoke set)")
		preset     = flag.String("preset", "dblp-small", "workload preset (dblp-small, pokec-small, web-small, ...)")
		iterations = flag.Int("iterations", 10, "loop iterations for PR/SSSP experiments (fig10/fig11 use 25 as in the paper)")
		scale      = flag.Int("scale", 0, "override the preset's node count (0 keeps the preset)")
		reps       = flag.Int("reps", 3, "timing repetitions (median reported)")
		parts      = flag.Int("partitions", 4, "table partitions")
		mdOut      = flag.String("md", "", "also write the results as Markdown to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile of the run to this file (pprof -sample_index=alloc_space)")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := bench.Config{
		Preset:     *preset,
		Nodes:      *scale,
		Iterations: *iterations,
		Reps:       *reps,
		Partitions: *parts,
	}

	// smokeSet is the experiment list `make bench-smoke` runs; CI
	// regenerates bench-smoke.md from it. Every entry must name a
	// registered runner — the check below fails the run otherwise, so a
	// renamed experiment cannot silently drop out of the smoke doc.
	smokeSet := []string{"pruning", "trace", "shuffle", "faults"}

	want := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		if e == "smoke" {
			for _, id := range smokeSet {
				want[id] = true
			}
			continue
		}
		want[e] = true
	}
	all := want["all"]
	delete(want, "all")

	type runner struct {
		id  string
		run func() (*bench.Experiment, error)
	}
	paperCfg := cfg
	paperCfg.Iterations = 25 // Figures 10 and 11 run 25 iterations in the paper.
	runners := []runner{
		{"table1", func() (*bench.Experiment, error) { return bench.TableI(cfg) }},
		{"fig8", func() (*bench.Experiment, error) { return bench.Fig8(cfg) }},
		{"fig9", func() (*bench.Experiment, error) {
			return bench.Fig9(cfg, []string{"dblp-small", "pokec-small"})
		}},
		{"fig10", func() (*bench.Experiment, error) { return bench.Fig10(paperCfg, nil) }},
		{"fig11", func() (*bench.Experiment, error) { return bench.Fig11(paperCfg) }},
		{"middleware", func() (*bench.Experiment, error) { return bench.MiddlewareAblation(cfg) }},
		{"parallel", func() (*bench.Experiment, error) { return bench.ParallelScaling(cfg, nil) }},
		{"pruning", func() (*bench.Experiment, error) { return bench.PruningComparison(cfg) }},
		{"trace", func() (*bench.Experiment, error) { return bench.TraceOverhead(cfg) }},
		{"shuffle", func() (*bench.Experiment, error) { return bench.ShuffleComparison(cfg) }},
		{"faults", func() (*bench.Experiment, error) { return bench.FaultTolerance(cfg) }},
	}

	known := map[string]bool{}
	var ids []string
	for _, r := range runners {
		known[r.id] = true
		ids = append(ids, r.id)
	}
	ok := true
	for id := range want {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", id, strings.Join(ids, ","))
			ok = false
		}
	}

	var md strings.Builder
	for _, r := range runners {
		if !all && !want[r.id] {
			continue
		}
		exp, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			ok = false
			continue
		}
		fmt.Println(exp.Render())
		md.WriteString(exp.Markdown())
		md.WriteByte('\n')
	}
	if *mdOut != "" {
		// Drift guard: every experiment this run was asked for must have
		// written its "### <id> — ..." section, or the committed Markdown
		// (bench-smoke.md in CI) silently goes stale.
		for _, r := range runners {
			if !all && !want[r.id] {
				continue
			}
			if !strings.Contains(md.String(), "### "+r.id+" — ") {
				fmt.Fprintf(os.Stderr, "experiment %s wrote no section to %s; the committed results would go stale\n", r.id, *mdOut)
				ok = false
			}
		}
		if err := os.WriteFile(*mdOut, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *mdOut, err)
			ok = false
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

// startProfiles starts the CPU profile (if asked for) and returns the
// function that stops it and writes the allocation profile. main calls
// it explicitly before os.Exit, which would skip a defer.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // flush the last allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
