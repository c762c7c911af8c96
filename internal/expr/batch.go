package expr

import (
	"math"

	"dbspinner/internal/sqltypes"
)

// The typed path over a batch. A typed program (float.go) also runs over
// a batch of rows at once, BatchRows or fewer where they are rows: each
// step is one loop over a column vector — a float64 per row, a per-row
// INT mark and a null bitmap — in place of one interpreted step per row.
// A leaf gathers its column from the rows into a vector, a copy of each
// cell's number: the rows themselves are only read. Where the cells lie
// in no row, the caller writes each leaf's vector itself (EvalColumns). It
// computes exactly what the row program
// computes, and bails on the same rows, with one difference: a NULL leaf
// does not bail but propagates, as every generic operator the program
// takes propagates it (NULL op anything is NULL, and a comparison with
// NULL is not TRUE), so such a row's result is NULL without the generic
// evaluator. A row that bails anywhere in the program stays bailed, and
// its value is the root's Eval over it — the row path — even where a NULL
// reached the root too: a bail can stand for an error the generic
// evaluator raises first.

// BatchRows is the most rows a batch holds.
const BatchRows = 1024

// A Batch is the scratch a typed program evaluates a batch of rows in: its
// stack of vectors and the rows it bailed on. It grows to the rows and the
// stack depth it is given and is reused from then on; the zero value is
// ready. One batch at a time may use it.
type Batch struct {
	stack []vector
	bail  []uint64 // bit i: row i bailed, the row path evaluates it
	keep  []uint64 // bit i: a condition holds for row i (floatCmp)
	leaf  Column   // the leaf a caller fills (run)
}

// A vector is one operand of a typed program over a batch: a float64 per
// row, whether the row's cell is an INT — one that an INT carried exactly
// in its float64 below 2^53, and widened as Value.Float widens it above —
// and whether it is NULL (its float64 is then 0). Bit i of a bitmap is bit
// i%64 of word i/64; bits past the batch's rows mean nothing.
type vector struct {
	f          []float64
	ints, null []uint64
}

// words returns bm resized to w words, contents undefined.
func words(bm []uint64, w int) []uint64 {
	if cap(bm) < w {
		return make([]uint64, w, max(w, BatchRows/64))
	}
	return bm[:w]
}

// push returns stack slot i sized to n rows.
func (b *Batch) push(i, n int) *vector {
	for len(b.stack) <= i {
		b.stack = append(b.stack, vector{})
	}
	v := &b.stack[i]
	if cap(v.f) < n {
		v.f = make([]float64, n, max(n, BatchRows))
	}
	w := (n + 63) >> 6
	v.f, v.ints, v.null = v.f[:n], words(v.ints, w), words(v.null, w)
	return v
}

// test is zero outside tests: the seeded mutant of a gather that leaves
// the previous batch's NULL marks in the null bitmap.
var test struct{ staleNulls bool }

// A Column is where a leaf of a typed program reads its cells over a
// batch: its vector's numbers and marks, which EvalColumns' caller fills a
// row at a time.
type Column struct {
	f                []float64
	ints, null, bail []uint64
}

// Set writes row i's cell: a FLOAT's value, an INT's widened value and
// INT mark, a NULL's mark. A cell that is no number bails the row.
func (c *Column) Set(i int, cell *sqltypes.Value) {
	k, bit := i>>6, uint64(1)<<(i&63)
	switch cell.T {
	case sqltypes.Float:
		c.f[i] = cell.F
	case sqltypes.Int:
		c.f[i] = float64(cell.I)
		c.ints[k] |= bit
	case sqltypes.Null, sqltypes.Unknown:
		c.f[i] = 0
		c.null[k] |= bit
	default:
		c.bail[k] |= bit
	}
}

// SetNull writes a NULL as row i's cell.
func (c *Column) SetNull(i int) {
	c.f[i] = 0
	c.null[i>>6] |= 1 << (i & 63)
}

// gather reads column col of rows into c. A row too short for the column
// bails.
func gather(c *Column, rows []sqltypes.Row, col int) {
	for i, r := range rows {
		if uint(col) >= uint(len(r)) {
			c.bail[i>>6] |= 1 << (i & 63)
			continue
		}
		c.Set(i, &r[col])
	}
}

// vecKernel is a floatKernel over a batch: x = x∘y on every row, with the
// rows where floatKernel bails — both INTs, a zero divisor that is not
// NULL — marked in bail.
type vecKernel func(x, y *vector, bail []uint64)

// vecKernels hold + - * / over a batch. A variable only so the tests can
// seed mutant bails; nothing else assigns it.
var vecKernels = map[string]vecKernel{
	"+": func(x, y *vector, bail []uint64) {
		a, b := x.f, y.f[:len(x.f)]
		for i := range a {
			a[i] += b[i]
		}
		bailInts(x, y, bail)
	},
	"-": func(x, y *vector, bail []uint64) {
		a, b := x.f, y.f[:len(x.f)]
		for i := range a {
			a[i] -= b[i]
		}
		bailInts(x, y, bail)
	},
	"*": func(x, y *vector, bail []uint64) {
		a, b := x.f, y.f[:len(x.f)]
		for i := range a {
			a[i] *= b[i]
		}
		bailInts(x, y, bail)
	},
	"/": func(x, y *vector, bail []uint64) {
		a, b := x.f, y.f[:len(x.f)]
		for k := 0; k < len(a); k += 64 {
			var zero uint64
			for i := k; i < min(k+64, len(a)); i++ {
				if b[i] == 0 {
					zero |= 1 << (i - k)
				}
				a[i] /= b[i]
			}
			bail[k>>6] |= zero &^ (x.null[k>>6] | y.null[k>>6])
		}
		bailInts(x, y, bail)
	},
}

// bailInts marks the rows where both operands are INTs.
func bailInts(x, y *vector, bail []uint64) {
	for k := range bail {
		bail[k] |= x.ints[k] & y.ints[k]
	}
}

// evalBatch runs p over rows: the root's vector is b.stack[0], or for a
// condition, the rows it holds for are b.keep; the rows it bailed on are
// b.bail either way.
func (p floatProg) evalBatch(b *Batch, rows []sqltypes.Row) {
	p.run(b, len(rows), func(col int, c *Column) { gather(c, rows, col) })
}

// run is evalBatch over n rows whose leaves fill writes: column col's
// cells into c, once per leaf step.
func (p floatProg) run(b *Batch, n int, fill func(col int, c *Column)) {
	w := (n + 63) >> 6
	b.bail = words(b.bail, w)
	clear(b.bail)
	sp := 0
	for i := range p {
		s := &p[i]
		switch s.op {
		case floatCol:
			v := b.push(sp, n)
			clear(v.ints)
			if !test.staleNulls {
				clear(v.null)
			}
			b.leaf = Column{v.f, v.ints, v.null, b.bail}
			fill(s.col, &b.leaf)
			sp++
		case floatConst:
			v := b.push(sp, n)
			sp++
			for j := range v.f {
				v.f[j] = s.v
			}
			var mark uint64
			if s.isInt {
				mark = ^uint64(0)
			}
			for k := range v.ints {
				v.ints[k], v.null[k] = mark, 0
			}
		case floatArith:
			sp--
			x, y := &b.stack[sp-1], &b.stack[sp]
			s.vec(x, y, b.bail)
			for k := range x.ints {
				x.ints[k], x.null[k] = 0, x.null[k]|y.null[k]
			}
		case floatMod:
			sp--
			x, y := &b.stack[sp-1], &b.stack[sp]
			modBatch(x, y, b.bail)
		case floatCast:
			clear(b.stack[sp-1].ints)
		case floatRound:
			x := &b.stack[sp-1]
			for k := range x.ints {
				b.bail[k] |= x.ints[k] &^ x.null[k]
			}
			for j, f := range x.f {
				x.f[j] = roundFloat(f, s.v)
			}
		case floatCeil:
			x := &b.stack[sp-1]
			for j, f := range x.f {
				x.f[j] = math.Ceil(f)
			}
			clear(x.ints)
		case floatFloor:
			x := &b.stack[sp-1]
			for j, f := range x.f {
				x.f[j] = math.Floor(f)
			}
			clear(x.ints)
		case floatCmp:
			sp--
			cmpBatch(b, &b.stack[sp-1], &b.stack[sp], s.holds)
		}
	}
}

// modBatch is floatMod over a batch: x = x % y where both are INTs carried
// exactly and y is not 0, NULL where either is NULL, and a bail anywhere
// else.
func modBatch(x, y *vector, bail []uint64) {
	a, b := x.f, y.f[:len(x.f)]
	for i := range a {
		k, bit := i>>6, uint64(1)<<(i&63)
		switch {
		case (x.null[k]|y.null[k])&bit != 0:
		case x.ints[k]&y.ints[k]&bit == 0 || !exactInt(a[i]) || !exactInt(b[i]) || b[i] == 0:
			bail[k] |= bit
		default:
			a[i] = float64(int64(a[i]) % int64(b[i]))
		}
	}
	for k := range x.ints {
		x.ints[k], x.null[k] = x.ints[k]&y.ints[k], x.null[k]|y.null[k]
	}
}

// cmpBatch is floatCmp over a batch: b.keep marks the rows where x and y
// compare as holds says, in sqltypes.Compare's order — INTs exactly,
// anything else as the floats they widen to (NaN equal to NaN and above
// every other number) — and neither is NULL; two INTs not both carried
// exactly bail.
func cmpBatch(b *Batch, x, y *vector, holds [3]bool) {
	b.keep = words(b.keep, len(b.bail))
	clear(b.keep)
	a, c := x.f, y.f[:len(x.f)]
	for i := range a {
		k, bit := i>>6, uint64(1)<<(i&63)
		switch {
		case (x.null[k]|y.null[k])&bit != 0:
		case x.ints[k]&y.ints[k]&bit != 0 && (!exactInt(a[i]) || !exactInt(c[i])):
			b.bail[k] |= bit
		case holds[sqltypes.CompareFloat(a[i], c[i])+1]:
			b.keep[k] |= bit
		}
	}
}

// Typed reports whether c is a FLOAT tree with a typed program, which
// EvalBatch and EvalColumns run a batch at a time.
func (c *Compiled) Typed() bool { return c.prog != nil && !c.prog.cond() }

// Floats is a typed program's result over a batch, in the Batch it ran in
// and valid until that Batch's next use: row i's FLOAT, or NULL, where
// the program computed it, and otherwise a mark that the row bailed, whose
// value is then the expression's Eval over the row.
type Floats struct {
	f          []float64
	null, bail []uint64
}

// Bailed reports whether the program bailed on row i.
func (r *Floats) Bailed(i int) bool { return r.bail[i>>6]&(1<<(i&63)) != 0 }

// At returns row i's value, where it did not bail: the FLOAT f, or NULL.
func (r *Floats) At(i int) (f float64, null bool) { return r.f[i], r.null[i>>6]&(1<<(i&63)) != 0 }

// result is the result of the program that ran in b last: a root that
// is an INT bails, as its Value would not be the FLOAT the vector holds.
func (b *Batch) result() Floats {
	top := &b.stack[0]
	for k := range b.bail {
		b.bail[k] |= top.ints[k]
	}
	return Floats{top.f, top.null, b.bail}
}

// EvalColumns runs c's typed program (Typed) over a batch of n rows whose
// cells are not in rows: fill writes, for each leaf of the program, the
// cells of the column col it reads into c (Column.Set, Column.SetNull).
// Where it does not bail on a row, what it computes is what c.Eval returns
// over a row holding those cells, bit for bit.
func (c *Compiled) EvalColumns(b *Batch, n int, fill func(col int, c *Column)) Floats {
	c.prog.run(b, n, fill)
	return b.result()
}

// EvalBatch evaluates c over each of rows into cell of the row of out at
// the same index: a typed program runs over the whole batch in b and the
// rows it bails on take c.Eval; anything else takes c.Eval row by row.
// What it writes is what c.Eval returns, value for value and bit for bit.
// It stops at the first error it meets, which need not be the first one
// c.Eval would raise row by row across several expressions: a caller that
// must report that one replays the batch.
func (c *Compiled) EvalBatch(b *Batch, rows, out []sqltypes.Row, cell int) error {
	out = out[:len(rows)]
	if !c.Typed() {
		for i, r := range rows {
			v, err := c.Eval(r)
			if err != nil {
				return err
			}
			out[i][cell] = v
		}
		return nil
	}
	c.prog.evalBatch(b, rows)
	res := b.result()
	for i, r := range rows {
		switch f, null := res.At(i); {
		case res.Bailed(i):
			v, err := c.Eval(r)
			if err != nil {
				return err
			}
			out[i][cell] = v
		case null:
			out[i][cell] = sqltypes.NullValue
		default:
			out[i][cell] = sqltypes.NewFloat(f)
		}
	}
	return nil
}

// SelectBatch keeps the rows c holds for (Holds), in order, in rows' own
// storage, and returns them. A condition with a typed program runs it over
// the whole batch in b, and the rows it bails on take c.Holds; any other
// takes c.Holds row by row. Like EvalBatch, it stops at the first error it
// meets.
func (c *Compiled) SelectBatch(b *Batch, rows []sqltypes.Row) ([]sqltypes.Row, error) {
	kept := rows[:0]
	if c.prog == nil || !c.prog.cond() {
		for _, r := range rows {
			ok, err := c.Holds(r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		return kept, nil
	}
	c.prog.evalBatch(b, rows)
	for i, r := range rows {
		k, bit := i>>6, uint64(1)<<(i&63)
		ok := b.keep[k]&bit != 0
		if b.bail[k]&bit != 0 {
			var err error
			if ok, err = c.Holds(r); err != nil {
				return nil, err
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return kept, nil
}
