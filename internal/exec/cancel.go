package exec

import "context"

// cancelStride is the row interval between context polls. Polling a
// context costs an atomic load plus a channel select; amortized over
// a power-of-two stride the per-row cost is one increment and one
// mask, which disappears against expression evaluation.
const cancelStride = 1024

// CancelChecker polls a context at a coarse row stride inside the
// executor's tightest loops (scans, hash-join probes, nested-loop
// pairs). A nil *CancelChecker is the no-op used when execution runs
// without a cancelable context: Tick on a nil receiver is one branch
// and no allocation, keeping the tracing/cancellation-off path free.
type CancelChecker struct {
	ctx context.Context
	n   uint64
}

// NewCancelChecker returns a checker for ctx, or nil when ctx is nil
// or can never be canceled (Done() == nil, e.g. context.Background()),
// so uncancellable executions keep the zero-cost nil path.
func NewCancelChecker(ctx context.Context) *CancelChecker {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &CancelChecker{ctx: ctx}
}

// Tick reports the context error on every cancelStride-th call, nil
// otherwise. Call it once per row in a hot loop.
func (c *CancelChecker) Tick() error {
	if c == nil {
		return nil
	}
	c.n++
	if c.n&(cancelStride-1) != 0 {
		return nil
	}
	return c.ctx.Err()
}

// Check polls the context unconditionally (no stride). Call it at
// batch boundaries, where the poll cost is already amortized.
func (c *CancelChecker) Check() error {
	if c == nil {
		return nil
	}
	return c.ctx.Err()
}

// TickN is n calls of Tick at once, for a loop that counts its rows a
// batch at a time: it polls the context as many times as they would
// have, and reports the first error a poll returns.
func (c *CancelChecker) TickN(n int) error {
	if c == nil {
		return nil
	}
	before := c.n
	c.n += uint64(n)
	for polls := c.n/cancelStride - before/cancelStride; polls > 0; polls-- {
		if err := c.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
