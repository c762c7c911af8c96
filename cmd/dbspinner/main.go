// Command dbspinner is an interactive SQL shell over the embedded
// engine, with the WITH ITERATIVE extension enabled.
//
// Usage:
//
//	dbspinner                 # interactive shell on stdin
//	dbspinner -f script.sql   # execute a script
//	dbspinner -e "SELECT 1"   # execute one statement
//	dbspinner -load dblp-small  # pre-load a generated graph dataset
//
// Shell meta-commands: \q quit, \timing toggle timings, \tables list
// tables, \explain <query> show the plan (iterative queries print the
// Table I style step program).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dbspinner"
	"dbspinner/internal/workload"
)

func main() {
	var (
		file     = flag.String("f", "", "execute a SQL script file")
		stmt     = flag.String("e", "", "execute one statement and exit")
		load     = flag.String("load", "", "pre-load a generated dataset (dblp-small, pokec-small, web-small)")
		parts    = flag.Int("partitions", 4, "table partitions")
		parallel = flag.Bool("parallel", false, "execute on the MPP machine")
	)
	flag.Parse()

	e := dbspinner.New(dbspinner.Config{Partitions: *parts, Parallel: *parallel})
	if *load != "" {
		if err := loadPreset(e, *load); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loaded %s into tables edges and vertexStatus\n", *load)
	}

	switch {
	case *stmt != "":
		if err := runStatement(e, *stmt, true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runScript(e, string(data)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		repl(e)
	}
}

func loadPreset(e *dbspinner.Engine, preset string) error {
	g, err := workload.Generate(preset)
	if err != nil {
		return err
	}
	if _, err := e.Exec("CREATE TABLE edges (src int, dst int, weight float)"); err != nil {
		return err
	}
	if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
		return err
	}
	if _, err := e.Exec("CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)"); err != nil {
		return err
	}
	return e.BulkInsert("vertexStatus", workload.VertexStatus(g, 0.8, 99))
}

// runStatement executes one statement, printing results for SELECTs.
func runStatement(e *dbspinner.Engine, sql string, show bool) error {
	trimmed := strings.TrimSpace(strings.ToUpper(sql))
	if strings.HasPrefix(trimmed, "SELECT") || strings.HasPrefix(trimmed, "WITH") || strings.HasPrefix(trimmed, "(") {
		r, err := e.Query(sql)
		if err != nil {
			return err
		}
		if show {
			fmt.Print(r.String())
			fmt.Printf("(%d rows)\n", len(r.Rows))
		}
		return nil
	}
	if strings.HasPrefix(trimmed, "EXPLAIN") {
		out, err := e.Explain(sql)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	n, err := e.Exec(sql)
	if err != nil {
		return err
	}
	if show {
		fmt.Printf("OK, %d rows affected\n", n)
	}
	return nil
}

func runScript(e *dbspinner.Engine, script string) error {
	for _, stmt := range splitStatements(script) {
		if err := runStatement(e, stmt, true); err != nil {
			return fmt.Errorf("%q: %w", abbreviate(stmt), err)
		}
	}
	return nil
}

func repl(e *dbspinner.Engine) {
	fmt.Println("DBSpinner shell — iterative CTEs enabled. \\q to quit, \\timing to toggle timings.")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	timing := false
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("dbspinner> ")
		} else {
			fmt.Print("        -> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			switch {
			case trimmed == "\\q" || trimmed == "\\quit":
				return
			case trimmed == "\\timing":
				timing = !timing
				fmt.Printf("timing %v\n", timing)
			case trimmed == "\\tables":
				for _, t := range e.Tables() {
					fmt.Println(t)
				}
			case strings.HasPrefix(trimmed, "\\explain "):
				out, err := e.Explain(strings.TrimPrefix(trimmed, "\\explain "))
				if err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				} else {
					fmt.Print(out)
				}
			default:
				fmt.Println("unknown command; try \\q, \\timing, \\tables, \\explain <query>")
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sql := buf.String()
			buf.Reset()
			start := time.Now()
			if err := runStatement(e, sql, true); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else if timing {
				fmt.Printf("time: %v\n", time.Since(start).Round(time.Microsecond))
			}
		}
		prompt()
	}
}

// splitStatements splits on semicolons outside string literals.
func splitStatements(script string) []string {
	var out []string
	var cur strings.Builder
	inString := false
	for i := 0; i < len(script); i++ {
		c := script[i]
		switch {
		case c == '\'':
			inString = !inString
			cur.WriteByte(c)
		case c == ';' && !inString:
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}

func abbreviate(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}
