package core

import (
	"errors"
	"fmt"
	"strings"
)

// ErrIterationCapExceeded is the sentinel every iteration-cap failure
// wraps: the planner-installed guard on loops whose termination the
// converge analysis could not prove (Unknown verdicts), and the
// recursive-CTE fixed-point cap. Detect it with errors.Is and recover
// the details with errors.As on *IterationCapError.
//
//lint:ignore coreerrors sentinel matched by errors.Is; IterationCapError carries the CTE and cap
var ErrIterationCapExceeded = errors.New("iteration cap exceeded")

// DefaultMaxIterations is the safety cap applied when
// Options.MaxIterations is zero. It matches the recursive-CTE default.
const DefaultMaxIterations = 100000

// IterationCapError reports a loop stopped by its safety cap rather
// than by its own termination condition. Diags carries the converge
// analysis' diagnostics — why termination could not be proved — so the
// failure explains which part of the query to look at.
type IterationCapError struct {
	// CTE is the iterative or recursive CTE whose loop hit the cap.
	CTE string
	// Cap is the iteration limit that fired (Config.MaxIterations or
	// the default).
	Cap int64
	// Diags are the termination-analysis diagnostics attached to the
	// guard when the rewrite installed it (empty for recursive CTEs).
	Diags []string
}

// Error implements error.
func (e *IterationCapError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CTE %s exceeded the %d-iteration safety cap without terminating", e.CTE, e.Cap)
	if len(e.Diags) > 0 {
		fmt.Fprintf(&b, " (termination could not be proved: %s)", strings.Join(e.Diags, "; "))
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrIterationCapExceeded) work through
// the step-context wrapping Program.Run applies.
func (e *IterationCapError) Unwrap() error { return ErrIterationCapExceeded }
