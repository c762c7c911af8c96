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
	Result() sqltypes.Value
}

// NewAggregator constructs an accumulator for the named aggregate.
// star marks COUNT(*); distinct wraps the accumulator with
// duplicate elimination.
func NewAggregator(name string, star, distinct bool) (Aggregator, error) {
	var a Aggregator
	switch strings.ToUpper(name) {
	case "COUNT":
		a = &countAgg{star: star}
	case "SUM":
		a = &sumAgg{}
	case "MIN":
		a = &extremumAgg{dir: -1}
	case "MAX":
		a = &extremumAgg{dir: 1}
	case "AVG":
		a = &avgAgg{}
	default:
		return nil, fmt.Errorf("unknown aggregate %s", name)
	}
	if distinct {
		a = &distinctAgg{inner: a, seen: sqltypes.NewKeyTable(1, 0)}
	}
	return a, nil
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

func (c *countAgg) Result() sqltypes.Value { return sqltypes.NewInt(c.n) }

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
		} else {
			s.i += v.I
		}
	case sqltypes.Float:
		if !s.isFloat {
			s.f = float64(s.i)
			s.isFloat = true
		}
		s.f += v.F
	default:
		return fmt.Errorf("SUM requires numeric input, got %s", v.T)
	}
	s.any = true
	return nil
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

func (e *extremumAgg) Result() sqltypes.Value { return e.best }

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
	a.sum += v.Float()
	a.n++
	return nil
}

func (a *avgAgg) Result() sqltypes.Value {
	if a.n == 0 {
		return sqltypes.NullValue
	}
	return sqltypes.NewFloat(a.sum / float64(a.n))
}

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

func (d *distinctAgg) Result() sqltypes.Value { return d.inner.Result() }
