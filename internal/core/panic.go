package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"dbspinner/internal/faultinject"
)

// Panic containment: no query may take down the engine. Panics are
// recovered at three nested layers — worker goroutines
// (faultinject.Contain around every spawn in the MPP machine), the step
// dispatcher (dispatch), and RunContext itself as the last resort — and
// converted into an InternalPanicError carrying the step, iteration and
// partition reached, the same provenance shape QueryLifecycleError gives
// cancellations.

// ErrInternalPanic is the sentinel wrapped by every contained panic: a
// step, worker goroutine or the final query panicked and the engine
// converted the panic into a structured error instead of crashing.
// Match with errors.Is; errors.As on *InternalPanicError recovers the
// panic value, stack, iteration, step and partition.
//
//lint:ignore coreerrors sentinel matched by errors.Is; InternalPanicError carries step, iteration and partition
var ErrInternalPanic = errors.New("internal panic")

// InternalPanicError is the structured error behind ErrInternalPanic:
// where the panic happened and what it carried. Match with errors.As.
type InternalPanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
	// Iteration is the number of completed loop iterations when the
	// panic fired (0 outside a loop).
	Iteration int
	// Step is the 1-based step index that panicked; 0 when the panic
	// fired outside the step program (final query, planning).
	Step int
	// Partition is the MPP partition index of the panicking worker,
	// -1 when the panic did not come from a partition worker.
	Partition int
}

// Error implements error.
func (e *InternalPanicError) Error() string {
	msg := fmt.Sprintf("internal panic at iteration %d", e.Iteration)
	if e.Step > 0 {
		msg += fmt.Sprintf(", step %d", e.Step)
	}
	if e.Partition >= 0 {
		msg += fmt.Sprintf(", partition %d", e.Partition)
	}
	return fmt.Sprintf("%s: %v", msg, e.Value)
}

// Unwrap exposes the class sentinel so errors.Is works.
func (e *InternalPanicError) Unwrap() error { return ErrInternalPanic }

// containPanic converts a recovered panic value into an error: an
// error-mode injection carrier unwraps to its plain error, a
// *faultinject.PanicError already contained by a worker keeps its
// partition, anything else becomes an InternalPanicError with the
// stack captured here.
func containPanic(v any, iteration, step int) error {
	if e, ok := faultinject.AsError(v); ok {
		return e
	}
	if pe, ok := v.(*faultinject.PanicError); ok {
		return &InternalPanicError{Value: pe.Value, Stack: string(pe.Stack),
			Iteration: iteration, Step: step, Partition: pe.Partition}
	}
	return &InternalPanicError{Value: v, Stack: string(debug.Stack()),
		Iteration: iteration, Step: step, Partition: -1}
}

// promotePanic lifts a *faultinject.PanicError travelling as an error
// (a contained worker panic bubbling up through a step's error return)
// into the structured InternalPanicError, stamping iteration and step.
// Every other error passes through unchanged.
func promotePanic(err error, iteration, step int) error {
	if err == nil {
		return nil
	}
	var pe *faultinject.PanicError
	if !errors.As(err, &pe) {
		return err
	}
	var ipe *InternalPanicError
	if errors.As(err, &ipe) {
		return err // already promoted upstream
	}
	return &InternalPanicError{Value: pe.Value, Stack: string(pe.Stack),
		Iteration: iteration, Step: step, Partition: pe.Partition}
}

// retryable reports whether a failed iteration may be retried from its
// checkpoint: context cancellations/deadlines and iteration-cap
// failures are final (retrying cannot change them); everything else —
// injected faults, contained panics, effect violations, transient
// executor errors — is worth bounded retries.
func retryable(err error) bool {
	if err == nil || isContextErr(err) {
		return false
	}
	var capErr *IterationCapError
	return !errors.As(err, &capErr)
}
