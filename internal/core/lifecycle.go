package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Query lifecycle errors: a running step program polls its
// context.Context at every cooperative checkpoint — each step boundary,
// each MPP partition batch, and the executor's scan/join inner loops at
// a coarse row stride — and a fired context surfaces as one of the two
// sentinels below, wrapped in a
// QueryLifecycleError that names the iteration and step reached. The
// iteration boundary is the natural cancellation unit (the paper's
// loop operator makes a single statement run unboundedly long), but
// the finer checkpoints bound the latency of a kill to well under one
// iteration even when an iteration itself is slow.

// ErrQueryCanceled is the sentinel wrapped by every cancellation
// failure: the caller's context was canceled while the query was
// running. Detect it with errors.Is and recover the iteration and step
// reached with errors.As on *QueryLifecycleError.
//
//lint:ignore coreerrors sentinel matched by errors.Is; QueryLifecycleError carries the iteration and step
var ErrQueryCanceled = errors.New("query canceled")

// ErrQueryTimeout is the sentinel wrapped by every deadline failure:
// the deadline on the context the run was given — the caller's, or
// the one the engine arms from Config.QueryTimeout — expired while the
// query was running. Detect it with errors.Is and
// recover the iteration and step reached with errors.As on
// *QueryLifecycleError.
//
//lint:ignore coreerrors sentinel matched by errors.Is; QueryLifecycleError carries the iteration and step
var ErrQueryTimeout = errors.New("query deadline exceeded")

// QueryLifecycleError reports where a canceled or timed-out query
// stopped: how many loop iterations had completed and which step of
// the rewritten program was about to run. Match the class with
// errors.Is(err, ErrQueryCanceled) or errors.Is(err, ErrQueryTimeout)
// and recover the position with errors.As.
type QueryLifecycleError struct {
	// Cause is the context error that fired (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
	// Iteration is the number of completed loop iterations when the
	// query stopped, every loop's of the statement (0 when it stopped
	// before any loop).
	Iteration int
	// Step is the 1-based index of the step that observed the
	// cancellation; 0 when the query stopped outside the step program
	// (final query, plain statement, recursive CTE).
	Step int
	// Where labels the execution phase for positions outside the step
	// program ("final query", "recursive CTE", ...).
	Where string
}

// Error implements error.
func (e *QueryLifecycleError) Error() string {
	var b strings.Builder
	if errors.Is(e.Cause, context.DeadlineExceeded) {
		b.WriteString("query deadline exceeded")
	} else {
		b.WriteString("query canceled")
	}
	fmt.Fprintf(&b, " at iteration %d", e.Iteration)
	if e.Step > 0 {
		fmt.Fprintf(&b, ", step %d", e.Step)
	}
	if e.Where != "" {
		fmt.Fprintf(&b, " (%s)", e.Where)
	}
	return b.String()
}

// Unwrap exposes both the class sentinel (ErrQueryCanceled or
// ErrQueryTimeout) and the underlying context error, so errors.Is
// works against either.
func (e *QueryLifecycleError) Unwrap() []error {
	if errors.Is(e.Cause, context.DeadlineExceeded) {
		return []error{ErrQueryTimeout, e.Cause}
	}
	return []error{ErrQueryCanceled, e.Cause}
}

// isContextErr reports whether err stems from a fired context — either
// a bare context sentinel bubbled up from the executor layers (which
// cannot import this package) or an already-wrapped lifecycle error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// WrapCancel converts a bare context error into the structured
// QueryLifecycleError, stamping the iteration and step (1-based; 0 for
// positions outside the step program) reached. Errors that are neither
// context cancellations nor deadline expiries — and errors already
// wrapped — pass through unchanged.
func WrapCancel(err error, iteration, step int, where string) error {
	if err == nil {
		return nil
	}
	var le *QueryLifecycleError
	if errors.As(err, &le) {
		return err
	}
	if !isContextErr(err) {
		return err
	}
	cause := err
	if errors.Is(err, context.DeadlineExceeded) {
		cause = context.DeadlineExceeded
	} else {
		cause = context.Canceled
	}
	return &QueryLifecycleError{Cause: cause, Iteration: iteration, Step: step, Where: where}
}
