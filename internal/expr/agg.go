package expr

import (
	"fmt"
	"strings"

	"dbspinner/internal/sqltypes"
)

// Aggregator accumulates input values for one group and produces the
// aggregate result. Implementations follow SQL semantics: NULL inputs
// are ignored (except COUNT(*)), and an empty group yields NULL for
// SUM/MIN/MAX/AVG and 0 for COUNT.
type Aggregator interface {
	Add(v sqltypes.Value) error
	// AddFloat is Add(sqltypes.NewFloat(f)), with no Value built: the add
	// of a typed argument's result, which cannot fail.
	AddFloat(f float64)
	Result() sqltypes.Value
	// Reset empties the accumulator, as its constructor made it, so that
	// another group can take it over.
	Reset()
}

// NewAggregators resolves the named aggregate once and returns the
// constructor of its accumulators, one call per group. star marks
// COUNT(*); distinct wraps each accumulator with duplicate elimination.
func NewAggregators(name string, star, distinct bool) (func() Aggregator, error) {
	var mk func() Aggregator
	switch strings.ToUpper(name) {
	case "COUNT":
		mk = carved(countAgg{star: star})
	case "SUM":
		mk = carved(sumAgg{})
	case "MIN":
		mk = carved(extremumAgg{dir: -1})
	case "MAX":
		mk = carved(extremumAgg{dir: 1})
	case "AVG":
		mk = carved(avgAgg{})
	default:
		return nil, fmt.Errorf("unknown aggregate %s", name)
	}
	if distinct {
		inner := mk
		mk = func() Aggregator {
			return &distinctAgg{inner: inner(), seen: sqltypes.NewKeyTable(1, 0)}
		}
	}
	return mk, nil
}

// Accumulator chunks grow like row slabs: a few groups pay for a small
// chunk, many groups for one allocation per maxAccChunk of them.
const (
	minAccChunk = 4
	maxAccChunk = 256
)

// carved returns a constructor of accumulators that start as init,
// carved from chunks of the concrete type instead of one heap object
// per group. A chunk lives as long as any accumulator carved from it.
func carved[T any, P interface {
	*T
	Aggregator
}](init T) func() Aggregator {
	var chunk []T
	size := minAccChunk
	return func() Aggregator {
		if len(chunk) == 0 {
			chunk = make([]T, size)
			size = min(2*size, maxAccChunk)
		}
		a := &chunk[0]
		chunk = chunk[1:]
		*a = init
		return P(a)
	}
}

// IsAggregate reports whether name is a supported aggregate function.
func IsAggregate(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// AggregateResultType returns the static result type of the aggregate
// applied to an input of type in.
func AggregateResultType(name string, in sqltypes.Type) sqltypes.Type {
	switch strings.ToUpper(name) {
	case "COUNT":
		return sqltypes.Int
	case "AVG":
		return sqltypes.Float
	case "SUM":
		if in == sqltypes.Int {
			return sqltypes.Int
		}
		return sqltypes.Float
	default: // MIN, MAX
		return in
	}
}

type countAgg struct {
	star bool
	n    int64
}

func (c *countAgg) Add(v sqltypes.Value) error {
	if c.star || !v.IsNull() {
		c.n++
	}
	return nil
}

func (c *countAgg) AddFloat(float64) { c.n++ }

func (c *countAgg) Result() sqltypes.Value { return sqltypes.NewInt(c.n) }

func (c *countAgg) Reset() { c.n = 0 }

type sumAgg struct {
	any     bool
	isFloat bool
	i       int64
	f       float64
}

func (s *sumAgg) Add(v sqltypes.Value) error {
	if v.IsNull() {
		return nil
	}
	switch v.T {
	case sqltypes.Int:
		if s.isFloat {
			s.f += float64(v.I)
			break
		}
		sum, err := sqltypes.AddInt(s.i, v.I)
		if err != nil {
			return err
		}
		s.i = sum.I
	case sqltypes.Float:
		s.AddFloat(v.F)
		return nil
	default:
		return fmt.Errorf("SUM requires numeric input, got %s", v.T)
	}
	s.any = true
	return nil
}

// AddFloat is the one float add of SUM and of AVG's sum, called by Add
// too, and kept out of line: which NaN a NaN + NaN yields depends on the
// order the compiled add takes its operands in, so Add and AddFloat run
// the same machine code to stay bit-identical.
//
//go:noinline
func (s *sumAgg) AddFloat(f float64) {
	if !s.isFloat {
		s.f = float64(s.i)
		s.isFloat = true
	}
	s.f += f
	s.any = true
}

func (s *sumAgg) Result() sqltypes.Value {
	if !s.any {
		return sqltypes.NullValue
	}
	if s.isFloat {
		return sqltypes.NewFloat(s.f)
	}
	return sqltypes.NewInt(s.i)
}

func (s *sumAgg) Reset() { *s = sumAgg{} }

type extremumAgg struct {
	dir  int
	best sqltypes.Value // starts NULL
}

func (e *extremumAgg) Add(v sqltypes.Value) error {
	if v.IsNull() {
		return nil
	}
	if e.best.IsNull() || sqltypes.Compare(v, e.best)*e.dir > 0 {
		e.best = v
	}
	return nil
}

func (e *extremumAgg) AddFloat(f float64) {
	switch {
	case e.best.IsNull():
	case e.best.T == sqltypes.Float:
		if sqltypes.CompareFloat(f, e.best.F)*e.dir <= 0 {
			return
		}
	case sqltypes.Compare(sqltypes.NewFloat(f), e.best)*e.dir <= 0:
		return
	}
	e.best = sqltypes.NewFloat(f)
}

func (e *extremumAgg) Result() sqltypes.Value { return e.best }

func (e *extremumAgg) Reset() { e.best = sqltypes.Value{} }

type avgAgg struct {
	n   int64
	sum float64
}

func (a *avgAgg) Add(v sqltypes.Value) error {
	if v.IsNull() {
		return nil
	}
	if v.T != sqltypes.Int && v.T != sqltypes.Float {
		return fmt.Errorf("AVG requires numeric input, got %s", v.T)
	}
	a.AddFloat(v.Float())
	return nil
}

// AddFloat is out of line as sumAgg.AddFloat is.
//
//go:noinline
func (a *avgAgg) AddFloat(f float64) {
	a.sum += f
	a.n++
}

func (a *avgAgg) Result() sqltypes.Value {
	if a.n == 0 {
		return sqltypes.NullValue
	}
	return sqltypes.NewFloat(a.sum / float64(a.n))
}

func (a *avgAgg) Reset() { *a = avgAgg{} }

type distinctAgg struct {
	inner Aggregator
	seen  *sqltypes.KeyTable
}

func (d *distinctAgg) Add(v sqltypes.Value) error {
	if v.IsNull() {
		// NULLs are ignored by the wrapped aggregates anyway.
		return nil
	}
	key := [1]sqltypes.Value{v}
	if _, added := d.seen.Insert(key[:]); !added {
		return nil
	}
	return d.inner.Add(v)
}

func (d *distinctAgg) AddFloat(f float64) { d.Add(sqltypes.NewFloat(f)) }

func (d *distinctAgg) Result() sqltypes.Value { return d.inner.Result() }

func (d *distinctAgg) Reset() {
	d.inner.Reset()
	d.seen.Reset(1, 0, 0)
}
