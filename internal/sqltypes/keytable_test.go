package sqltypes

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// TestKernelSizes pins the two sizes the kernel's memory behaviour
// rests on, so the next change to either is deliberate.
func TestKernelSizes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Errorf("sizeof(Value) = %d, want 40", got)
	}
	if got := unsafe.Sizeof(keySlot{}); got != 8 {
		t.Errorf("sizeof(keySlot) = %d, want 8", got)
	}
}

// routingPool is the expression kernels' value pool (internal/expr's
// kernelPool): NULL and the zero Value, both booleans, the zeros, ±1 as
// INT and FLOAT, integers a float cannot hold, the INT extremes, the
// infinities, NaN, a fraction and two strings.
var routingPool = []Value{
	NullValue, {},
	NewBool(true), NewBool(false),
	NewInt(0), NewFloat(math.Copysign(0, -1)),
	NewInt(1), NewInt(-1), NewFloat(1), NewFloat(-1),
	NewInt(1<<53 + 1), NewInt(-(1<<53 + 1)),
	NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
	NewFloat(1.5),
	NewString("x"), NewString(""),
}

// legacyPartition is the single-value routing hash as storage has always
// computed it, written out independently: NULL and a single partition go
// to 0, anything else is FNV-1a over the value's bytes with no type tag —
// a number's normalized float bits, a string's bytes, a boolean's 0/1.
func legacyPartition(v Value, parts int) int {
	if parts <= 1 || v.IsNull() {
		return 0
	}
	var b []byte
	switch v.T {
	case Bool:
		b = []byte{byte(v.I)}
	case String:
		b = []byte(v.S)
	default:
		f := v.Float()
		switch {
		case f == 0:
			f = 0
		case f != f:
			f = math.NaN()
		}
		b = binary.LittleEndian.AppendUint64(nil, math.Float64bits(f))
	}
	h := fnv.New64a()
	h.Write(b)
	return int(h.Sum64() % uint64(parts))
}

// TestPartitionOfIsTheRoutingFunction: PartitionOf, which storage and the
// MPP exchanges route through without a CompositeKey, sends every
// one-column key where RowKey(Row{v}, []int{0}).Partition does, and
// both keep the layout the historical hash gave base tables — over the
// value pool and 5k random INTs and FLOATs, at every partition count a
// caller passes, 0 and 1 included.
func TestPartitionOfIsTheRoutingFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := append([]Value(nil), routingPool...)
	for i := 0; i < 2500; i++ {
		vals = append(vals, NewInt(rng.Int63n(1<<40)-1<<39), NewFloat(rng.NormFloat64()*1e6))
	}
	vals = append(vals, NewFloat(3), NewInt(3)) // 3 and 3.0 co-locate
	for _, parts := range []int{0, 1, 2, 3, 4, 7} {
		for _, v := range vals {
			got := PartitionOf(Row{v}, []int{0}, parts)
			if want := RowKey(Row{v}, []int{0}).Partition(parts); got != want {
				t.Fatalf("PartitionOf(%s %v, %d) = %d, RowKey(...).Partition = %d", v.T, v, parts, got, want)
			}
			if want := legacyPartition(v, parts); got != want {
				t.Fatalf("PartitionOf(%s %v, %d) = %d, the historical hash = %d", v.T, v, parts, got, want)
			}
		}
	}
}

// modelKey is the reference model's notion of a key: a canonical string
// per tuple, built without the table's hash or equality. Numbers go by
// their float image except integers beyond 2^53, which the pool only
// produces as INT and which must stay exact.
func modelKey(key []Value) string {
	var b strings.Builder
	for _, v := range key {
		switch {
		case v.IsNull():
			b.WriteString("n|")
		case v.T == Bool:
			fmt.Fprintf(&b, "b%d|", v.I)
		case v.T == String:
			fmt.Fprintf(&b, "s%d:%s|", len(v.S), v.S)
		case v.T == Int && (v.I >= 1<<53 || v.I <= -(1<<53)):
			fmt.Fprintf(&b, "i%d|", v.I)
		default:
			f := v.Float()
			if f == 0 {
				f = 0 // -0 = +0
			}
			if f != f {
				b.WriteString("nan|")
				continue
			}
			fmt.Fprintf(&b, "f%016x|", math.Float64bits(f))
		}
	}
	return b.String()
}

// randomKeyValue draws from a pool built to collide: small integers as
// INT and as FLOAT, both zeros, NaN, neighbours beyond 2^53 (INT only),
// short strings, booleans and NULLs.
func randomKeyValue(rng *rand.Rand, spread int) Value {
	switch rng.Intn(10) {
	case 0:
		return NullValue
	case 1:
		return NewBool(rng.Intn(2) == 0)
	case 2:
		return NewString(fmt.Sprintf("s%d", rng.Intn(spread)))
	case 3:
		return NewFloat(float64(rng.Intn(spread))) // equal to an INT of the pool
	case 4:
		return NewFloat(float64(rng.Intn(spread)) + 0.5)
	case 5:
		switch rng.Intn(4) {
		case 0:
			return NewFloat(math.Copysign(0, -1))
		case 1:
			return NewFloat(0)
		case 2:
			return NewFloat(math.NaN())
		}
		return Value{} // the zero Value is NULL too
	case 6:
		return NewInt(1<<53 + int64(rng.Intn(4)))
	}
	return NewInt(int64(rng.Intn(spread)))
}

func TestKeyTableAgainstMapModel(t *testing.T) {
	for width := 0; width <= 5; width++ {
		for _, spread := range []int{3, 40, 2000} {
			rng := rand.New(rand.NewSource(int64(100*width + spread)))
			table := NewKeyTable(width, 0)
			model := map[string]int{}
			var first [][]Value
			startSlots := len(table.slots)
			key := make([]Value, width+1) // one longer: Insert uses the first width values
			for op := 0; op < 6000; op++ {
				for i := range key {
					key[i] = randomKeyValue(rng, spread)
				}
				mk := modelKey(key[:width])
				wantID, present := model[mk]
				if op%3 == 0 {
					got := table.Find(key)
					if !present {
						wantID = -1
					}
					if got != wantID {
						t.Fatalf("width %d: Find(%v) = %d, model says %d", width, key[:width], got, wantID)
					}
					continue
				}
				id, added := table.Insert(key)
				if added == present {
					t.Fatalf("width %d: Insert(%v) added=%v, model present=%v", width, key[:width], added, present)
				}
				if !present {
					wantID = len(model)
					model[mk] = wantID
					first = append(first, append([]Value(nil), key[:width]...))
				}
				if id != wantID {
					t.Fatalf("width %d: Insert(%v) id = %d, want first-insertion id %d", width, key[:width], id, wantID)
				}
			}
			if table.Len() != len(model) {
				t.Fatalf("width %d: Len = %d, model has %d", width, table.Len(), len(model))
			}
			// Every id still resolves to the values first inserted under
			// it, exactly as given (an INT stays an INT).
			for id, want := range first {
				got := table.Key(id)
				if len(got) != width || cap(got) != width {
					t.Fatalf("Key(%d) has len %d cap %d, want %d/%d", id, len(got), cap(got), width, width)
				}
				for i := range want {
					if got[i].T != want[i].T || modelKey(got[i:i+1]) != modelKey(want[i:i+1]) {
						t.Fatalf("Key(%d)[%d] = %#v, first inserted %#v", id, i, got[i], want[i])
					}
				}
				if table.Find(want) != id {
					t.Fatalf("Find(Key(%d)) = %d", id, table.Find(want))
				}
			}
			if spread == 2000 && width > 0 && len(table.slots) < 8*startSlots {
				t.Errorf("width %d: %d keys grew the table only from %d to %d slots; the test must cross several resizes",
					width, table.Len(), startSlots, len(table.slots))
			}
		}
	}
}

func TestKeyTableEquality(t *testing.T) {
	big := int64(1) << 53
	cases := []struct {
		a, b Value
		same bool
	}{
		{NewInt(1), NewFloat(1), true},
		{NewInt(big), NewInt(big + 1), false}, // same float image, different integers
		{NewInt(big), NewFloat(float64(big)), true},
		{NewFloat(0), NewFloat(math.Copysign(0, -1)), true},
		{NewFloat(math.NaN()), NewFloat(math.NaN()), true},
		{NewFloat(math.NaN()), NewFloat(1), false},
		{NullValue, Value{}, true},
		{NullValue, NewInt(0), false},
		{NewBool(true), NewInt(1), false},
		{NewString("1"), NewInt(1), false},
		{NewString("a"), NewString("a"), true},
	}
	for _, c := range cases {
		tab := NewKeyTable(1, 0)
		tab.Insert([]Value{c.a})
		_, added := tab.Insert([]Value{c.b})
		if added == c.same {
			t.Errorf("%#v vs %#v: same key = %v, want %v", c.a, c.b, !added, c.same)
		}
	}
}

func TestKeyTableZeroWidthAndHint(t *testing.T) {
	tab := NewKeyTable(0, 0)
	if tab.Find(nil) != -1 {
		t.Error("empty zero-width table finds the empty key")
	}
	if id, added := tab.Insert(nil); id != 0 || !added {
		t.Errorf("first empty key: id %d added %v", id, added)
	}
	if id, added := tab.Insert(Row{NewInt(7)}); id != 0 || added {
		t.Errorf("every zero-width key is the one empty key: id %d added %v", id, added)
	}
	hinted := NewKeyTable(1, 1000)
	slots := len(hinted.slots)
	for i := 0; i < 1000; i++ {
		hinted.Insert([]Value{NewInt(int64(i))})
	}
	if len(hinted.slots) != slots {
		t.Errorf("a table hinted for 1000 keys grew from %d to %d slots", slots, len(hinted.slots))
	}
}

// TestKeyTablePayloadCells: a table with payload cells after each key
// hands them out zeroed, and what the caller writes there — here values
// equal to other keys of the pool — changes no Key, no Find and no
// equality, across several resizes; every Row is the full stride,
// capped, and survives the growth that moves it.
func TestKeyTablePayloadCells(t *testing.T) {
	for width := 0; width <= 3; width++ {
		for _, payload := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(10*width + payload)))
			table := NewPayloadKeyTable(width, payload, 0)
			model := map[string]int{}
			var first [][]Value
			key := make([]Value, width)
			for op := 0; op < 3000; op++ {
				for i := range key {
					key[i] = randomKeyValue(rng, 200)
				}
				id, added := table.Insert(key)
				mk := modelKey(key)
				wantID, present := model[mk]
				if added == present || (present && id != wantID) {
					t.Fatalf("width %d payload %d: Insert(%v) = %d, %v; model has %d, %v", width, payload, key, id, added, wantID, present)
				}
				if !added {
					continue
				}
				model[mk] = id
				first = append(first, append([]Value(nil), key...))
				row := table.Row(id)
				if len(row) != width+payload || cap(row) != width+payload {
					t.Fatalf("Row(%d) has len %d cap %d, want %d/%d", id, len(row), cap(row), width+payload, width+payload)
				}
				for i, v := range row[width:] {
					if v != (Value{}) {
						t.Fatalf("width %d: payload cell %d of new id %d is %#v, want zeroed", width, i, id, v)
					}
					row[width+i] = routingPool[(id+i)%len(routingPool)]
				}
			}
			for id, want := range first {
				if got := table.Key(id); len(got) != width || cap(got) != width || modelKey(got) != modelKey(want) {
					t.Fatalf("width %d payload %d: Key(%d) = %v (cap %d), first inserted %v", width, payload, id, got, cap(got), want)
				}
				if got := table.Find(want); got != id {
					t.Fatalf("width %d payload %d: Find(Key(%d)) = %d", width, payload, id, got)
				}
				row := table.Row(id)
				for i, v := range row[width:] {
					if w := routingPool[(id+i)%len(routingPool)]; modelKey([]Value{v}) != modelKey([]Value{w}) {
						t.Fatalf("width %d payload %d: payload cell %d of id %d is %v after growth, wrote %v", width, payload, i, id, v, w)
					}
				}
			}
		}
	}
	empty := NewKeyTable(0, 0)
	empty.Insert(nil)
	if r := empty.Row(0); r == nil || len(r) != 0 {
		t.Errorf("zero-width Row = %#v, want non-nil and empty: nil means end of stream", r)
	}
	narrow := NewPayloadKeyTable(1, 1, 0)
	narrow.Insert([]Value{NewInt(1)})
	narrow.Insert([]Value{NewInt(2)})
	grown := append(narrow.Row(0), NewString("overflow"))
	grown[0] = NewString("scribble")
	if narrow.Find([]Value{NewInt(1)}) != 0 || narrow.Key(1)[0].I != 2 || !narrow.Row(1)[1].IsNull() {
		t.Error("an append to Row(0) wrote into the table")
	}
}

// TestKeyTableReset: a table reset for another use is, to every caller,
// the table NewPayloadKeyTable makes for it — the same ids in the same
// order, the same Find answers, payload cells zeroed, nothing of the
// previous keys found — over uses that change width, payload and hint;
// and a use whose keys fit the storage the previous ones grew allocates
// nothing.
func TestKeyTableReset(t *testing.T) {
	reused := NewKeyTable(1, 0)
	for use, u := range []struct{ width, payload, hint, keys, spread int }{
		{1, 0, 0, 3000, 2000}, {1, 0, 0, 50, 40}, {2, 1, 50, 400, 40}, {0, 2, 0, 5, 3},
		{1, 0, 3000, 2500, 2000}, {3, 0, 10, 900, 40}, {1, 2, 0, 3000, 2000},
	} {
		reused.Reset(u.width, u.payload, u.hint)
		fresh := NewPayloadKeyTable(u.width, u.payload, u.hint)
		rng := rand.New(rand.NewSource(int64(use)))
		key := make([]Value, u.width)
		for op := 0; op < u.keys; op++ {
			for i := range key {
				key[i] = randomKeyValue(rng, u.spread)
			}
			if op%4 == 0 {
				if got, want := reused.Find(key), fresh.Find(key); got != want {
					t.Fatalf("use %d: Find(%v) = %d after Reset, %d in a new table", use, key, got, want)
				}
				continue
			}
			id, added := reused.Insert(key)
			wantID, wantAdded := fresh.Insert(key)
			if id != wantID || added != wantAdded {
				t.Fatalf("use %d: Insert(%v) = %d, %v after Reset; %d, %v in a new table", use, key, id, added, wantID, wantAdded)
			}
			if !added {
				continue
			}
			row := reused.Row(id)
			for i, v := range row[u.width:] {
				if v != (Value{}) {
					t.Fatalf("use %d: payload cell %d of id %d is %#v after Reset, want zeroed", use, i, id, v)
				}
				row[u.width+i] = NewString("payload") // what the next Reset must clear
			}
		}
		for id := range fresh.Len() {
			if got, want := reused.Key(id), fresh.Key(id); modelKey(got) != modelKey(want) || cap(got) != u.width {
				t.Fatalf("use %d: Key(%d) = %v after Reset, %v in a new table", use, id, got, want)
			}
		}
	}

	// Storage the earlier uses grew is kept: filling it again allocates
	// nothing.
	keys := make([][]Value, 2000)
	for i := range keys {
		keys[i] = []Value{NewInt(int64(i)), NewString("k")}
	}
	table := NewPayloadKeyTable(2, 1, 0)
	fill := func() {
		table.Reset(2, 1, 0)
		for _, k := range keys {
			table.Insert(k)
		}
	}
	fill()
	if n := testing.AllocsPerRun(5, fill); n != 0 {
		t.Errorf("refilling a reset table with as many keys allocated %.0f times, want 0", n)
	}
}

// TestKeyTableStorageBytes: key storage doubles with the slots and never
// grows by append. Over 1 to 5,000 keys without a hint, the cells it
// ever allocated stay within twice what it holds at the end, and that
// within twice what the keys fill (or the first step's room); with a
// hint it allocates once, exactly the hint's cells, and keeps them while
// the keys fit.
func TestKeyTableStorageBytes(t *testing.T) {
	for _, payload := range []int{0, 2} {
		const width = 2
		stride := width + payload
		table := NewPayloadKeyTable(width, payload, 0)
		var seen *Value
		allocated := 0
		for n := 1; n <= 5000; n++ {
			table.Insert([]Value{NewInt(int64(n)), NewString("k")})
			if p := unsafe.SliceData(table.vals); p != seen {
				seen, allocated = p, allocated+cap(table.vals)
			}
			final := cap(table.vals)
			if allocated > 2*final || final > 2*max(n, minKeySlots/2)*stride {
				t.Fatalf("payload %d, %d keys: %d cells allocated in all, %d held, %d filled", payload, n, allocated, final, n*stride)
			}
		}
		for _, hint := range []int{1, 7, 100, 4096, 5000} {
			hinted := NewPayloadKeyTable(width, payload, hint)
			data := unsafe.SliceData(hinted.vals)
			for n := 1; n <= hint; n++ {
				hinted.Insert([]Value{NewInt(int64(n)), NewString("k")})
			}
			if cap(hinted.vals) != hint*stride || unsafe.SliceData(hinted.vals) != data {
				t.Errorf("payload %d, hint %d: %d keys hold %d cells, want one allocation of %d", payload, hint, hint, cap(hinted.vals), hint*stride)
			}
		}
	}
}

// TestRowSlabRowsAreCapped is the ownership half of the kernel: a row
// carved from a slab has no spare capacity, so appending to it copies
// instead of writing into the next row.
func TestRowSlabRowsAreCapped(t *testing.T) {
	var slab RowSlab
	rows := make([]Row, 40) // spans several chunks
	for i := range rows {
		rows[i] = slab.Alloc(3)
		for j := range rows[i] {
			if !rows[i][j].IsNull() {
				t.Fatalf("row %d is not zeroed", i)
			}
			rows[i][j] = NewInt(int64(10*i + j))
		}
	}
	for i, r := range rows {
		if len(r) != 3 || cap(r) != 3 {
			t.Fatalf("row %d: len %d cap %d, want 3/3", i, len(r), cap(r))
		}
		before := append(Row(nil), rows[(i+1)%len(rows)]...)
		grown := append(r, NewString("overflow"))
		grown[0] = NewString("scribble")
		if !rows[(i+1)%len(rows)].Equal(before) || r[0].T == String {
			t.Fatalf("append to row %d altered a slab row", i)
		}
	}
	if got := slab.Alloc(0); got == nil {
		t.Error("a zero-width row must be non-nil: nil means end of stream")
	}
}

func TestRowSlabChunksGrowFromSmall(t *testing.T) {
	var slab RowSlab
	slab.Alloc(9)
	if got := len(slab.buf); got != minSlabRows*9 {
		t.Errorf("first chunk holds %d values, want %d (small inputs must not pay for a big chunk)", got, minSlabRows*9)
	}
	for i := 0; i < 10*maxSlabRows; i++ {
		slab.Alloc(9)
		if len(slab.buf) > maxSlabRows*9 {
			t.Fatalf("chunk of %d values exceeds the %d-row bound", len(slab.buf), maxSlabRows)
		}
	}
}

func TestRowSlabRecycle(t *testing.T) {
	var slab RowSlab
	keep := slab.Alloc(2)
	keep[0], keep[1] = NewInt(1), NewInt(2)
	for i := 0; i < 3*minSlabRows; i++ { // across a chunk boundary
		r := slab.Alloc(2)
		r[0], r[1] = NewString("rejected"), NewInt(int64(i))
		slab.Recycle(r)
	}
	again := slab.Alloc(2)
	if !again[0].IsNull() || !again[1].IsNull() {
		t.Errorf("a recycled row comes back as %v, want all NULL", again)
	}
	if keep[0].I != 1 || keep[1].I != 2 {
		t.Errorf("recycling disturbed an earlier row: %v", keep)
	}
	if slab.rows != 2 {
		t.Errorf("slab counts %d rows handed out, want 2: recycled rows must not grow the next chunk", slab.rows)
	}
}
