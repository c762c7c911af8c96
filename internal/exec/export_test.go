package exec

import (
	"fmt"
	"strings"

	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Test-only machinery for the row-ownership contract (rows.go): a built
// operator tree is rewired in place — no build-time switch exists — into
// an all-retaining tree, or into one where every borrowed row is
// destroyed the moment the contract lets it go.

// scribbled is what a scribbleOp leaves in a row it has let go: a value
// no test table holds, so a consumer that kept the row shows it.
var scribbled = sqltypes.NewString("<scribbled>")

// scribbleOp sits on top of a borrowing producer and overwrites the row
// it returned last before pulling the next one, and at Close: the
// latest moment the contract allows, made certain instead of
// data-dependent.
type scribbleOp struct {
	input Operator
	last  sqltypes.Row
}

func (s *scribbleOp) scribble() {
	for i := range s.last {
		s.last[i] = scribbled
	}
	s.last = nil
}

func (s *scribbleOp) Open() error { return s.input.Open() }

func (s *scribbleOp) Next() (sqltypes.Row, error) {
	s.scribble()
	r, err := s.input.Next()
	s.last = r
	return r, err
}

func (s *scribbleOp) Close() error {
	s.scribble()
	return s.input.Close()
}

// inputsOf returns the addresses of op's input links. It knows every
// operator type; a new one must be added here before its plans can be
// ownership-tested.
func inputsOf(op Operator) []*Operator {
	switch t := op.(type) {
	case *scanOp, *rowsOp:
		return nil
	case *filterOp:
		return []*Operator{&t.input}
	case *projectOp:
		return []*Operator{&t.input}
	case *trimOp:
		return []*Operator{&t.input}
	case *tapOp:
		return []*Operator{&t.input}
	case *unionOp:
		return []*Operator{&t.left, &t.right}
	case *distinctOp:
		return []*Operator{&t.input}
	case *sortOp:
		return []*Operator{&t.input}
	case *limitOp:
		return []*Operator{&t.input}
	case *topNOp:
		return []*Operator{&t.input}
	case *aggOp:
		return []*Operator{&t.input}
	case *hashJoinOp:
		return []*Operator{&t.left, &t.right}
	case *nestedLoopOp:
		return []*Operator{&t.left, &t.right}
	}
	panic(fmt.Sprintf("inputsOf: unknown operator %T", op))
}

// borrowOf returns the flag that says whether a row-building operator,
// or an aggregate, hands out rows its consumer only reads: nil for the
// others.
func borrowOf(op Operator) *bool {
	switch t := op.(type) {
	case *projectOp:
		return &t.out.borrow
	case *hashJoinOp:
		return &t.out.borrow
	case *nestedLoopOp:
		return &t.out.borrow
	case *aggOp:
		return &t.lend
	}
	return nil
}

// rewire replaces every operator of the tree, bottom-up, by f(op).
func rewire(op Operator, f func(Operator) Operator) Operator {
	for _, in := range inputsOf(op) {
		*in = rewire(*in, f)
	}
	return f(op)
}

// lend makes the row-building operators that feed op's consumer borrow:
// op itself, or what it forwards. It is how a mutant breaks a keeper.
func lend(op Operator) {
	switch op.(type) {
	case *filterOp, *trimOp, *tapOp, *unionOp, *distinctOp, *limitOp:
		for _, in := range inputsOf(op) {
			lend(*in)
		}
	}
	if b := borrowOf(op); b != nil {
		*b = true
	}
}

// OwnershipMode selects how RunOwnership rewires the tree it built.
type OwnershipMode int

const (
	// Retaining: no operator borrows — the reference answer.
	Retaining OwnershipMode = iota
	// Scribbling: the tree as built, a scribbleOp on every borrowing
	// producer.
	Scribbling
	// MutantSort and MutantBuildSide: as Scribbling, after declaring the
	// input of every sort, or of every hash-join build side, borrowable
	// — which they are not. The results must be wrong.
	MutantSort
	MutantBuildSide
)

// RunOwnership builds n as RunContext would, rewires it per mode and
// drains it. It also returns how many scribbleOps it inserted.
func RunOwnership(n plan.Node, rt Runtime, mode OwnershipMode) (rows []sqltypes.Row, scribblers int, err error) {
	op, err := buildWith(n, rt, nil, nil, false, nil)
	if err != nil {
		return nil, 0, err
	}
	return runOwnership(op, mode)
}

// RunOwnershipFragment is RunOwnership of the tree BuildFragment makes of
// partition part: the root keeps rows, as the MPP machine does.
func RunOwnershipFragment(n plan.Node, rt Runtime, mode OwnershipMode, frag *Fragment, part int) (rows []sqltypes.Row, scribblers int, err error) {
	op, err := BuildFragment(n, rt, nil, nil, frag, part)
	if err != nil {
		return nil, 0, err
	}
	return runOwnership(op, mode)
}

func runOwnership(op Operator, mode OwnershipMode) (rows []sqltypes.Row, scribblers int, err error) {
	op = rewire(op, func(op Operator) Operator {
		switch t := op.(type) {
		case *sortOp:
			if mode == MutantSort {
				lend(t.input)
			}
		case *hashJoinOp:
			if mode == MutantBuildSide {
				if t.buildIsLeft() {
					lend(t.left)
				} else {
					lend(t.right)
				}
			}
		}
		return op
	})
	op = rewire(op, func(op Operator) Operator {
		b := borrowOf(op)
		switch {
		case b == nil:
		case mode == Retaining:
			*b = false
		case *b:
			scribblers++
			return &scribbleOp{input: op}
		}
		return op
	})
	rows, err = Drain(op)
	return rows, scribblers, err
}

// RowsText renders rows one per line, in order, for comparing two runs.
func RowsText(rows []sqltypes.Row) string { return strings.Join(rowStrings(rows), "\n") }

// AliasByName is the seeded mutant of the index memo's key: it re-files
// every entry under the table that its own table's name resolves to now
// (nil: leave it), so the next request for that table is served the
// index of whichever table had the name first — what a memo keyed on the
// slot name instead of the table's address would do.
func (m *Memo) AliasByName(resolve func(name string) *storage.Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.indexes {
		if now := resolve(e.t.Name); now != nil && now != e.t {
			now.Hold()
			e.t.Unhold()
			e.t = now
		}
	}
}

// Spares returns how many let-go indexes the memo holds for reuse.
func (m *Memo) Spares() int { return m.left.indexes.Len() }

// RecycleLive is the seeded mutant of the memo's reuse: it files the
// index of every entry for reuse while the entry still serves it, as a
// Sweep that recycled what the last iteration used would.
func (m *Memo) RecycleLive() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.indexes {
		m.Recycle(e.x)
	}
}

// SeedKeepingGivesBack arms, until the returned function is called, the
// seeded mutant of the aggregate's lending rule: a keeping aggregate gives
// its group table back at Close, so the node's next run — in the
// statement's next run, for the final query's — fills the rows its
// consumer kept.
func SeedKeepingGivesBack() (restore func()) {
	test.keepingGivesBack = true
	return func() { test.keepingGivesBack = false }
}

// SeedCarryEntries arms, until the returned function is called, the
// seeded mutant of Leftovers.End: the run memo's index entries outlive
// the run, and the statement's next run is served the indexes of tables
// DML has changed since under the same address.
func SeedCarryEntries() (restore func()) {
	test.carryEntries = true
	return func() { test.carryEntries = false }
}

// SeedUnheldEntries arms, until the returned function is called, the
// seeded mutant of the index entries' hold: an entry does not hold its
// table, so a table the store releases while an entry still serves its
// index hands its rows back under the index.
func SeedUnheldEntries() (restore func()) {
	test.unheldEntries = true
	return func() { test.unheldEntries = false }
}

// SeedUnpinnedFragmentKeeper arms, until the returned function is called,
// the seeded mutant of the scan's pin: a fragment scan under a keeping
// consumer does not pin the result it reads, so the rows the MPP machine
// keeps of it — a sort's, a table it materialized — are handed back with
// the result once the store releases it.
func SeedUnpinnedFragmentKeeper() (restore func()) {
	test.unpinnedFragmentKeeper = true
	return func() { test.unpinnedFragmentKeeper = false }
}
