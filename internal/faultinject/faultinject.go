// Package faultinject implements deterministic, schedule-driven fault
// injection for the iterative executor. A schedule is a list of
// (fault-point, hit-count, mode) triples; the registry counts how many
// times each named point is reached and fires the scheduled fault
// exactly when the count matches — no wall clock, no randomness, so a
// failing schedule replays bit-for-bit. The registered points sit at
// every step boundary (core), MPP partition batch (mpp) and storage
// mutation (storage); injection is off by default and costs one nil
// check per point when disarmed.
//
// The package also owns the panic-containment primitive, Contain: a
// recover wrapper for worker goroutines that converts a panic into a
// *PanicError carrying the panic value, stack and partition index, so
// a panicking fragment fails its query instead of the process.
package faultinject

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Mode selects how a scheduled fault manifests.
type Mode string

const (
	// ModeError makes the fault point return an *InjectedError.
	ModeError Mode = "error"
	// ModePanic makes the fault point panic, exercising the
	// containment layer.
	ModePanic Mode = "panic"
)

// Registered fault-point names. Each names one class of injection
// hook; a schedule entry must use one of these.
const (
	// PointStep fires at the step-boundary hook of the sequential
	// step dispatcher, counted once per dispatched step.
	PointStep = "step"
	// PointPartition fires at an MPP partition batch, injected into
	// partition 0's worker; the fault is taken serially before the
	// fan-out so the hit count is deterministic.
	PointPartition = "partition"
	// PointStorage fires at a result-store mutation (put, drop or
	// rename), counted in mutation order.
	PointStorage = "storage"
)

// Points lists every registered fault point, in a stable order, so
// tests can enumerate the full matrix.
func Points() []string {
	return []string{PointStep, PointPartition, PointStorage}
}

// Fault is one schedule entry: fire at the Hit-th arrival (1-based) at
// the named point, in the given mode.
type Fault struct {
	Point string
	Hit   int
	Mode  Mode
}

func (f Fault) String() string {
	return fmt.Sprintf("%s@%d:%s", f.Point, f.Hit, f.Mode)
}

// ParseSchedule parses the textual schedule format
// "point@hit:mode[,point@hit:mode...]" — e.g. "partition@2:panic,
// storage@5:error". Whitespace around entries is ignored; an empty
// string is an empty schedule.
func ParseSchedule(s string) ([]Fault, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Fault
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		at := strings.Index(entry, "@")
		colon := strings.LastIndex(entry, ":")
		if at < 1 || colon < at+2 || colon == len(entry)-1 {
			return nil, fmt.Errorf("fault schedule entry %q: want point@hit:mode", entry)
		}
		point := entry[:at]
		if !validPoint(point) {
			return nil, fmt.Errorf("fault schedule entry %q: unknown fault point %q (registered: %s)",
				entry, point, strings.Join(Points(), ", "))
		}
		hit, err := strconv.Atoi(entry[at+1 : colon])
		if err != nil || hit < 1 {
			return nil, fmt.Errorf("fault schedule entry %q: hit count must be a positive integer", entry)
		}
		mode := Mode(entry[colon+1:])
		if mode != ModeError && mode != ModePanic {
			return nil, fmt.Errorf("fault schedule entry %q: mode must be %q or %q", entry, ModeError, ModePanic)
		}
		out = append(out, Fault{Point: point, Hit: hit, Mode: mode})
	}
	return out, nil
}

// FormatSchedule renders a schedule in the ParseSchedule format, hits
// sorted within each point, points in registration order — the
// round-trippable form tests and CI artifacts use.
func FormatSchedule(sched []Fault) string {
	sorted := append([]Fault(nil), sched...)
	order := map[string]int{}
	for i, p := range Points() {
		order[p] = i
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if order[sorted[i].Point] != order[sorted[j].Point] {
			return order[sorted[i].Point] < order[sorted[j].Point]
		}
		return sorted[i].Hit < sorted[j].Hit
	})
	parts := make([]string, len(sorted))
	for i, f := range sorted {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

func validPoint(p string) bool {
	for _, known := range Points() {
		if p == known {
			return true
		}
	}
	return false
}

// ErrInjected is the sentinel wrapped by every error-mode injection.
// Match with errors.Is to distinguish a scheduled fault from a real
// failure.
var ErrInjected = errors.New("injected fault")

// InjectedError is the structured error behind ErrInjected: which
// point fired and at which hit count. Match with errors.As.
type InjectedError struct {
	Point string
	Hit   int
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected fault at %s hit %d", e.Point, e.Hit)
}

// Unwrap exposes the ErrInjected sentinel.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// Registry counts arrivals at each fault point and fires the scheduled
// faults. A nil *Registry is the disarmed state: every method is a
// no-op, so call sites need no guard beyond the nil receiver check the
// method itself performs.
type Registry struct {
	mu      sync.Mutex
	counts  map[string]int
	byPoint map[string][]Fault
}

// NewRegistry builds a registry from a schedule. An empty schedule
// returns nil — the disarmed, zero-cost state.
func NewRegistry(sched []Fault) *Registry {
	if len(sched) == 0 {
		return nil
	}
	r := &Registry{counts: map[string]int{}, byPoint: map[string][]Fault{}}
	for _, f := range sched {
		r.byPoint[f.Point] = append(r.byPoint[f.Point], f)
	}
	return r
}

// Take records one arrival at the point and returns the fault
// scheduled for exactly this hit count, or nil. Each scheduled fault
// is returned at most once (the counter only passes each hit number
// once), so a retried iteration does not re-fire the fault that
// failed it. Take never fires the fault itself: concurrent sites call
// it serially before fanning out, then Trigger the fault inside a
// chosen worker, keeping the hit count deterministic.
func (r *Registry) Take(point string) *Fault {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[point]++
	n := r.counts[point]
	for _, f := range r.byPoint[point] {
		if f.Hit == n {
			hit := f
			return &hit
		}
	}
	return nil
}

// Trigger fires a fault taken from the registry: error mode returns an
// *InjectedError, panic mode panics. A nil fault is a no-op.
func Trigger(f *Fault) error {
	if f == nil {
		return nil
	}
	if f.Mode == ModePanic {
		panic(fmt.Sprintf("injected panic at %s hit %d", f.Point, f.Hit))
	}
	return &InjectedError{Point: f.Point, Hit: f.Hit}
}

// Hit is Take followed by Trigger — the one-call form for serial
// injection sites.
func (r *Registry) Hit(point string) error {
	return Trigger(r.Take(point))
}

// carrier smuggles an error-mode injection out of a call site that has
// no error return (storage mutations): the site panics with a carrier
// and the containment layer unwraps it back into a plain error via
// AsError, so error mode stays an error even where only a panic can
// escape.
type carrier struct{ err error }

// Mutation is the injection hook for no-return mutation sites: error
// mode panics with a carrier (unwrapped to a plain error by the
// nearest containment layer), panic mode panics outright.
func (r *Registry) Mutation(point string) {
	if r == nil {
		return
	}
	f := r.Take(point)
	if f == nil {
		return
	}
	if f.Mode == ModePanic {
		panic(fmt.Sprintf("injected panic at %s hit %d", f.Point, f.Hit))
	}
	panic(carrier{&InjectedError{Point: f.Point, Hit: f.Hit}})
}

// AsError unwraps a recovered panic value that is really an error-mode
// injection in a carrier. ok=false means v is a genuine panic.
func AsError(v any) (error, bool) {
	if c, ok := v.(carrier); ok {
		return c.err, true
	}
	return nil, false
}

// PanicError is the contained form of a worker panic: the panic value,
// the goroutine stack at recovery, and the partition index of the
// worker (-1 for non-partition workers). The core layer promotes it
// into an InternalPanicError carrying iteration and step provenance.
type PanicError struct {
	Value     any
	Stack     []byte
	Partition int
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Partition >= 0 {
		return fmt.Sprintf("panic in partition %d worker: %v", e.Partition, e.Value)
	}
	return fmt.Sprintf("panic in worker: %v", e.Value)
}

// Contain runs fn and converts a panic into an error: an error-mode
// injection carrier unwraps to its plain error, anything else becomes
// a *PanicError recording the value, stack and partition. Every
// goroutine spawned by the executor layers must run its body under
// Contain (enforced by the spinlint gorecover analyzer) so no query
// can take down the process.
func Contain(partition int, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if e, ok := AsError(v); ok {
				err = e
				return
			}
			err = &PanicError{Value: v, Stack: debug.Stack(), Partition: partition}
		}
	}()
	return fn()
}
