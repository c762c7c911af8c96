package sqltypes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPartitionOfMatchesRowKey is the differential test of the routing
// kernel: over rows built from the value pool (every row of one to three
// columns, 20k random rows of four and of five, an unusual NaN payload
// included), PartitionOf(r, cols, parts) is RowKey(r, cols).Partition(parts)
// at every partition count {1,2,3,4,5,8}, the column positions read out
// of order past a leading column neither reads.
func TestPartitionOfMatchesRowKey(t *testing.T) {
	pool := append([]Value{NewFloat(math.Float64frombits(0xfff8000000000001))}, routingPool...)
	rng := rand.New(rand.NewSource(39))
	check := func(vals []Value) {
		w := len(vals)
		r := make(Row, w+1)
		r[0] = NewString("unread")
		cols := make([]int, w)
		for i, v := range vals {
			// Column i of the key sits at position w-i of the row.
			r[w-i] = v
			cols[i] = w - i
		}
		for _, parts := range []int{1, 2, 3, 4, 5, 8} {
			if got, want := PartitionOf(r, cols, parts), RowKey(r, cols).Partition(parts); got != want {
				t.Fatalf("PartitionOf(%v, %v, %d) = %d, RowKey(...).Partition = %d", r, cols, parts, got, want)
			}
		}
	}
	var every func(prefix []Value, w int)
	every = func(prefix []Value, w int) {
		if len(prefix) == w {
			check(prefix)
			return
		}
		for _, v := range pool {
			every(append(prefix, v), w)
		}
	}
	for w := 1; w <= 3; w++ {
		every(nil, w)
	}
	for w := 4; w <= 5; w++ {
		vals := make([]Value, w)
		for n := 0; n < 20000; n++ {
			for i := range vals {
				vals[i] = pool[rng.Intn(len(pool))]
			}
			check(vals)
		}
	}
	check(nil) // the zero-column key
}

// BenchmarkPartition times the routing kernel on one-, two- and
// five-column keys of INT, FLOAT and VARCHAR values at 2, 3 and 4
// partitions (2 and 4 mask the hash, 3 divides it).
func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, 1024)
	for i := range rows {
		rows[i] = Row{NewInt(rng.Int63n(1 << 20)), NewFloat(rng.Float64()), NewString(fmt.Sprint(rng.Intn(1000))), NewInt(int64(i)), NewFloat(float64(i) / 3)}
	}
	for _, cols := range [][]int{{0}, {0, 1}, {0, 1, 2, 3, 4}} {
		for _, parts := range []int{2, 3, 4} {
			b.Run(fmt.Sprintf("cols=%d/parts=%d", len(cols), parts), func(b *testing.B) {
				sink := 0
				for i := 0; i < b.N; i++ {
					sink += PartitionOf(rows[i&1023], cols, parts)
				}
				_ = sink
			})
		}
	}
}

// TestPartitionsOfIsPartitionOf: routing a batch in one pass gives every
// row the partition PartitionOf gives it, over the value pool's rows of
// one to three columns read at one and at two positions, at every
// partition count {1,2,3,4,5,8}.
func TestPartitionsOfIsPartitionOf(t *testing.T) {
	var rows []Row
	for _, a := range routingPool {
		for _, b := range routingPool {
			rows = append(rows, Row{NewString("unread"), a, b})
		}
	}
	dst := make([]int32, len(rows))
	for _, cols := range [][]int{{1}, {2}, {2, 1}, {1, 2, 0}} {
		for _, parts := range []int{1, 2, 3, 4, 5, 8} {
			PartitionsOf(dst, rows, cols, parts)
			for i, r := range rows {
				if want := PartitionOf(r, cols, parts); int(dst[i]) != want {
					t.Fatalf("PartitionsOf routes %v on %v to %d of %d, PartitionOf to %d", r, cols, dst[i], parts, want)
				}
			}
		}
	}
}
