package core

import (
	"errors"
	"fmt"

	"dbspinner/internal/ast"
)

// ErrIterationCapExceeded is the sentinel every iteration-cap failure
// wraps: a loop, iterative or recursive, still wanted to continue at the
// cap the rewrite installs on every loop (Options.loopCap). Detect it
// with errors.Is and recover the details with errors.As on
// *IterationCapError.
//
//lint:ignore coreerrors sentinel matched by errors.Is; IterationCapError carries the CTE and cap
var ErrIterationCapExceeded = errors.New("iteration cap exceeded")

// DefaultMaxIterations is the safety cap applied when
// Options.MaxIterations is zero.
const DefaultMaxIterations = 100000

// loopCap is the iteration cap of a loop whose condition is t:
// MaxIterations (DefaultMaxIterations when not positive), raised to n
// for UNTIL n ITERATIONS and UNTIL n UPDATES so a declared bound never
// trips it.
func (o Options) loopCap(t ast.Termination) int64 {
	n := o.MaxIterations
	if n <= 0 {
		n = DefaultMaxIterations
	}
	if t.Type == ast.TermMetadata {
		n = max(n, t.N)
	}
	return n
}

// IterationCapError reports a loop stopped by its safety cap rather
// than by its own termination condition.
type IterationCapError struct {
	// CTE is the iterative or recursive CTE whose loop hit the cap.
	CTE string
	// Cap is the iteration limit that fired (Config.MaxIterations or
	// the default).
	Cap int64
}

// Error implements error.
func (e *IterationCapError) Error() string {
	return fmt.Sprintf("CTE %s exceeded the %d-iteration safety cap without terminating", e.CTE, e.Cap)
}

// Unwrap makes errors.Is(err, ErrIterationCapExceeded) work through
// the step-context wrapping Program.Run applies.
func (e *IterationCapError) Unwrap() error { return ErrIterationCapExceeded }
