package bench

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"dbspinner"
	"dbspinner/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Preset names the workload dataset ("dblp-small", "pokec-small",
	// ...).
	Preset string
	// Nodes overrides the preset's node count (0 keeps the preset).
	Nodes int
	// Iterations is the loop bound for the iterative queries.
	Iterations int
	// Reps is the number of timed repetitions; the median is reported
	// (default 3).
	Reps int
	// Partitions for the engines (default 4).
	Partitions int
	// AvailFrac is the fraction of available nodes in vertexStatus
	// (default 0.8).
	AvailFrac float64
}

func (c Config) withDefaults() Config {
	if c.Preset == "" {
		c.Preset = "dblp-small"
	}
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Partitions == 0 {
		c.Partitions = 4
	}
	if c.AvailFrac == 0 {
		c.AvailFrac = 0.8
	}
	return c
}

// Experiment is one reproduced table or figure.
type Experiment struct {
	ID      string // e.g. "fig8"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   string
}

// Render prints the experiment as an aligned text table.
func (e *Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	widths := make([]int, len(e.Headers))
	all := append([][]string{e.Headers}, e.Rows...)
	for _, row := range all {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range all {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	if e.Notes != "" {
		b.WriteString(e.Notes)
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the experiment as a Markdown table for
// EXPERIMENTS.md.
func (e *Experiment) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", e.ID, e.Title)
	b.WriteString("| " + strings.Join(e.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(e.Headers)) + "\n")
	for _, row := range e.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if e.Notes != "" {
		b.WriteString("\n" + e.Notes + "\n")
	}
	return b.String()
}

// dataset generates (or reuses) the graph for a config.
func dataset(cfg Config) (*workload.Graph, error) {
	p, ok := workload.Presets[strings.ToLower(cfg.Preset)]
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", cfg.Preset)
	}
	nodes := p.Nodes
	if cfg.Nodes > 0 {
		nodes = cfg.Nodes
	}
	return workload.PreferentialAttachment(nodes, p.OutDeg, p.Mode, 42), nil
}

// NewEngine builds an engine loaded with the dataset's edges and
// vertexStatus tables, with cfg's zero fields at their defaults: an
// AvailFrac of 0 would load every vertex unavailable.
func NewEngine(g *workload.Graph, cfg Config, engineCfg dbspinner.Config) (*dbspinner.Engine, error) {
	cfg = cfg.withDefaults()
	if engineCfg.Partitions == 0 {
		engineCfg.Partitions = cfg.Partitions
	}
	e := dbspinner.New(engineCfg)
	if _, err := e.Exec("CREATE TABLE edges (src int, dst int, weight float)"); err != nil {
		return nil, err
	}
	if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
		return nil, err
	}
	if _, err := e.Exec("CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)"); err != nil {
		return nil, err
	}
	if err := e.BulkInsert("vertexStatus", workload.VertexStatus(g, cfg.AvailFrac, 99)); err != nil {
		return nil, err
	}
	return e, nil
}

// timeMedian runs f reps times (plus one warmup) and returns the
// median duration.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	if err := f(); err != nil { // warmup
		return 0, err
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// timePairs runs sql once on each of engines a and b to warm them, then
// times pairs runs on each, alternating: a first in the even pairs, b
// first in the odd ones, so a drift in the machine's speed falls on both
// alike. Pair i is ta[i] and tb[i].
func timePairs(pairs int, a, b *dbspinner.Engine, sql string) (ta, tb []time.Duration, err error) {
	engines := [2]*dbspinner.Engine{a, b}
	var times [2][]time.Duration
	for _, e := range engines {
		if _, err := e.Query(sql); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < pairs; i++ {
		for j := range engines {
			k := j ^ i%2
			start := time.Now()
			if _, err := engines[k].Query(sql); err != nil {
				return nil, nil, err
			}
			times[k] = append(times[k], time.Since(start))
		}
	}
	return times[0], times[1], nil
}

// quartiles returns the first quartile, the median and the third
// quartile of ts, interpolated between neighbours as make bench-pair
// does.
func quartiles(ts []time.Duration) (q [3]time.Duration) {
	s := slices.Clone(ts)
	slices.Sort(s)
	for k := range q {
		h := float64(len(s)-1) * float64(k+1) / 4
		lo := int(h)
		hi := min(lo+1, len(s)-1)
		q[k] = s[lo] + time.Duration((h-float64(lo))*float64(s[hi]-s[lo]))
	}
	return q
}

// withIQR renders a median and its interquartile range, q as quartiles
// returns them.
func withIQR(q [3]time.Duration) string {
	return fmt.Sprintf("%s (IQR %.1f-%.1f)", ms(q[1]), float64(q[0].Microseconds())/1000, float64(q[2].Microseconds())/1000)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f ms", float64(d.Microseconds())/1000)
}

func speedup(base, opt time.Duration) string {
	if opt <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(opt))
}

func improvement(base, opt time.Duration) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*(1-float64(opt)/float64(base)))
}
