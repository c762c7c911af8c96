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
// their float image except integers of 2^53 and beyond, which the pools
// only produce as INT and which must stay exact.
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

// edgeKeys are the values at the edges of the direct array: both zeros,
// the largest integers it takes as INT and as FLOAT, the smallest it does
// not, the INT extremes, NaN, the infinities, NULL, strings and booleans.
// Every integer of 2^53 or more is an INT: FLOAT 2^53 equals both INT
// 2^53 and INT 2^53+1, which differ, so no map model holds all three
// (TestKeyTableEquality takes them pairwise).
var edgeKeys = []Value{
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewInt(0),
	NewInt(1<<53 - 1), NewInt(-(1<<53 - 1)), NewFloat(1<<53 - 1), NewFloat(-(1<<53 - 1)),
	NewInt(1 << 53), NewInt(-1 << 53), NewInt(1<<53 + 1), NewInt(-(1<<53 + 1)),
	NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NullValue, {}, NewString(""), NewString("3"), NewBool(true), NewBool(false),
}

// randomKeyValue draws from a pool built to collide: small integers as
// INT and as FLOAT, both zeros, NaN, neighbours beyond 2^53 (INT only),
// short strings, booleans, NULLs and the edge keys.
func randomKeyValue(rng *rand.Rand, spread int) Value {
	switch rng.Intn(11) {
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
	case 7:
		return edgeKeys[rng.Intn(len(edgeKeys))]
	}
	return NewInt(int64(rng.Intn(spread)))
}

// denseKeyValue draws a first column the way the engine's keys come: the
// integers of [lo, lo+span) in random order, mostly as INT and now and
// then as the equal FLOAT (3 and 3.0 are one key), with fractions
// between them (3.5 is another), stragglers one to three spans out that
// a grown span may later reach, stragglers it never reaches, and the edge
// keys. Below 2^53 a FLOAT is exact; a fraction is drawn only where a
// float has room for it.
func denseKeyValue(rng *rand.Rand, lo int64, span int) Value {
	k := lo + int64(rng.Intn(span))
	switch rng.Intn(20) {
	case 0, 1:
		if k > -1<<53 && k < 1<<53 {
			return NewFloat(float64(k))
		}
	case 2:
		if k > -1<<51 && k < 1<<51 {
			return NewFloat(float64(k) + 0.5)
		}
	case 3:
		return NewInt(k + int64(span)*int64(1+rng.Intn(3)))
	case 4:
		return NewInt(k - 1_000_000_000)
	case 5:
		return edgeKeys[rng.Intn(len(edgeKeys))]
	}
	return NewInt(k)
}

// keyDist is a distribution of keys: pool values of one spread in every
// column, or a dense first column over [lo, lo+span) followed by pool
// values of spread 3, so that keys of width 2 or more share first
// columns.
type keyDist struct {
	name   string
	spread int
	dense  bool
	lo     int64
	span   int
}

var keyDists = []keyDist{
	{name: "pool 3", spread: 3},
	{name: "pool 40", spread: 40},
	{name: "pool 2000", spread: 2000},
	{name: "dense from 0", dense: true, span: 300},
	{name: "dense across 0", dense: true, lo: -150, span: 300},
	{name: "dense at 2^53", dense: true, lo: 1<<53 - 100, span: 200},
	{name: "dense far out", dense: true, lo: 1e12, span: 2000},
}

// draw fills key with one key of d.
func (d keyDist) draw(rng *rand.Rand, key []Value) {
	for i := range key {
		switch {
		case !d.dense:
			key[i] = randomKeyValue(rng, d.spread)
		case i == 0:
			key[i] = denseKeyValue(rng, d.lo, d.span)
		default:
			key[i] = randomKeyValue(rng, 3)
		}
	}
}

// TestKeyTableAgainstMapModel drives tables of every width from 0 to 5
// against a reference map over every distribution (checkKeyTableModel).
func TestKeyTableAgainstMapModel(t *testing.T) {
	if d := checkKeyTableModel(); d != "" {
		t.Fatal(d)
	}
}

// checkKeyTableModel inserts and finds 6,000 keys per width and
// distribution, and returns the first answer a map of modelKey strings
// disagrees with: a Find, an Insert's added flag or its first-insertion
// id, or a Key that is not the values first inserted under it. Each
// table starts without a hint, so the pool's spread of 2,000 crosses
// several slot resizes, and each dense distribution moves its span
// several times over keys hashed while the span did not reach them, and
// ends with keys in both places.
func checkKeyTableModel() string {
	for width := 0; width <= 5; width++ {
		for _, dist := range keyDists {
			rng := rand.New(rand.NewSource(int64(100*width + dist.spread + dist.span)))
			table := NewKeyTable(width, 0)
			model := map[string]int{}
			var first [][]Value
			var direct *int32
			moves := 0
			key := make([]Value, width+1) // one longer: Insert uses the first width values
			for op := 0; op < 6000; op++ {
				dist.draw(rng, key)
				mk := modelKey(key[:width])
				wantID, present := model[mk]
				if op%3 == 0 {
					got := table.Find(key)
					if !present {
						wantID = -1
					}
					if got != wantID {
						return fmt.Sprintf("width %d, %s: Find(%v) = %d, model says %d", width, dist.name, key[:width], got, wantID)
					}
					continue
				}
				lo := table.lo
				id, added := table.Insert(key)
				if added == present {
					return fmt.Sprintf("width %d, %s: Insert(%v) added=%v, model present=%v", width, dist.name, key[:width], added, present)
				}
				if !present {
					wantID = len(model)
					model[mk] = wantID
					first = append(first, append([]Value(nil), key[:width]...))
				}
				if id != wantID {
					return fmt.Sprintf("width %d, %s: Insert(%v) id = %d, want first-insertion id %d", width, dist.name, key[:width], id, wantID)
				}
				if p := unsafe.SliceData(table.direct); p != direct || table.lo != lo {
					direct, moves = p, moves+1
				}
			}
			if table.Len() != len(model) {
				return fmt.Sprintf("width %d, %s: Len = %d, model has %d", width, dist.name, table.Len(), len(model))
			}
			// Every id still resolves to the values first inserted under
			// it, exactly as given (an INT stays an INT).
			for id, want := range first {
				got := table.Key(id)
				if len(got) != width || cap(got) != width {
					return fmt.Sprintf("Key(%d) has len %d cap %d, want %d/%d", id, len(got), cap(got), width, width)
				}
				for i := range want {
					if got[i].T != want[i].T || modelKey(got[i:i+1]) != modelKey(want[i:i+1]) {
						return fmt.Sprintf("Key(%d)[%d] = %#v, first inserted %#v", id, i, got[i], want[i])
					}
				}
				if table.Find(want) != id {
					return fmt.Sprintf("Find(Key(%d)) = %d", id, table.Find(want))
				}
			}
			switch {
			case width == 0:
			case dist.spread == 2000 && len(table.slots) < 8*minKeySlots:
				return fmt.Sprintf("width %d: %d keys grew the slots only to %d; the test must cross several resizes", width, table.Len(), len(table.slots))
			case dist.dense && (moves < 3 || table.hashed == 0 || table.hashed == table.Len()):
				return fmt.Sprintf("width %d, %s: the span moved %d times and %d of %d keys are hashed; the test must move it several times and keep keys in both places",
					width, dist.name, moves, table.hashed, table.Len())
			}
		}
	}
	return ""
}

// TestKeyTableAgainstMapModelCatchesMutant seeds a span that moves over
// keys hashed while it did not reach them and leaves them in the slots:
// the next Insert of one hands out a second id, which the model sees.
func TestKeyTableAgainstMapModelCatchesMutant(t *testing.T) {
	test.keepHashed = true
	d := checkKeyTableModel()
	test.keepHashed = false
	if d == "" {
		t.Fatal("the model check passes with hashed keys left behind the span")
	}
	t.Log("caught: " + d)
}

// TestKeyTableEquality: KeyEqual says what the cases spell out, and a
// table calls two keys one exactly when KeyEqual does, in either place
// (checkKeyTableEquality).
func TestKeyTableEquality(t *testing.T) {
	big := int64(1) << 53
	cases := []struct {
		a, b Value
		same bool
	}{
		{NewInt(1), NewFloat(1), true},
		{NewInt(3), NewFloat(3.5), false},
		{NewFloat(3), NewFloat(3.5), false},
		{NewInt(big), NewInt(big + 1), false}, // same float image, different integers
		{NewInt(big), NewFloat(float64(big)), true},
		{NewInt(big + 1), NewFloat(float64(big)), true},
		{NewInt(-big - 1), NewFloat(-float64(big)), true},
		{NewInt(big - 1), NewFloat(float64(big)), false},
		{NewInt(math.MinInt64), NewFloat(math.MinInt64), true},
		{NewFloat(0), NewFloat(math.Copysign(0, -1)), true},
		{NewInt(0), NewFloat(math.Copysign(0, -1)), true},
		{NewFloat(math.NaN()), NewFloat(math.NaN()), true},
		{NewFloat(math.NaN()), NewFloat(1), false},
		{NullValue, Value{}, true},
		{NullValue, NewInt(0), false},
		{NewBool(true), NewInt(1), false},
		{NewString("1"), NewInt(1), false},
		{NewString("a"), NewString("a"), true},
	}
	for _, c := range cases {
		if got := KeyEqual(c.a, c.b); got != c.same {
			t.Errorf("KeyEqual(%#v, %#v) = %v, want %v", c.a, c.b, got, c.same)
		}
	}
	if d := checkKeyTableEquality(); d != "" {
		t.Fatal(d)
	}
}

// equalityPool is the edge keys, FLOAT ±2^53, and small integers as INT,
// as the equal FLOAT and as a FLOAT fraction beside them.
var equalityPool = append(append([]Value(nil), edgeKeys...),
	NewFloat(1<<53), NewFloat(-1<<53),
	NewInt(3), NewFloat(3), NewFloat(3.5), NewInt(-3), NewFloat(-3), NewFloat(-3.5),
	NewFloat(0.5), NewFloat(-0.5), NewInt(1<<51), NewFloat(1<<51+0.5))

// checkKeyTableEquality returns the first pair of equalityPool, of width
// 1 and of width 2 (the pair's values before a shared second column),
// that a table calls one key when KeyEqual says two or the reverse. Each
// pair meets in four tables: a new one, a hinted one, and one each whose
// direct span already holds the INTs around 0 and those just below
// ±2^53. Those are direct keys, each equal to no value but the ones of
// its own integer, so the pair's answer cannot depend on which held key
// it meets first.
func checkKeyTableEquality() string {
	var around0, belowBig []Value
	for k := int64(-8); k <= 8; k++ {
		around0 = append(around0, NewInt(k))
	}
	for k := int64(1); k <= 8; k++ {
		belowBig = append(belowBig, NewInt(1<<53-k), NewInt(-(1<<53 - k)))
	}
	for width := 1; width <= 2; width++ {
		for _, ctx := range []struct {
			name    string
			hint    int
			prefill []Value
		}{{"new", 0, nil}, {"hinted", 64, nil}, {"around 0", 0, around0}, {"below ±2^53", 0, belowBig}} {
			for _, a := range equalityPool {
				for _, b := range equalityPool {
					tab := NewKeyTable(width, ctx.hint)
					for _, p := range ctx.prefill {
						tab.Insert([]Value{p, NewString("x")})
					}
					before := tab.Find([]Value{b, NewString("x")})
					ia, _ := tab.Insert([]Value{a, NewString("x")})
					found := tab.Find([]Value{b, NewString("x")})
					ib, _ := tab.Insert([]Value{b, NewString("x")})
					want := KeyEqual(a, b)
					if (ia == ib) != want || (found == ia) != want || (before >= 0 && found != before) {
						return fmt.Sprintf("width %d, %s table: %s %v then %s %v: ids %d and %d, Find %d; KeyEqual says %v",
							width, ctx.name, a.T, a, b.T, b, ia, ib, found, want)
					}
				}
			}
		}
	}
	return ""
}

// TestKeyTableEqualityCatchesMutants seeds the two direct arrays that
// break the equality: one that truncates a FLOAT 3.5 into the entry of
// 3, and one that takes integers of 2^53 and beyond, where INT 2^53+1
// equals FLOAT 2^53 and gets another entry.
func TestKeyTableEqualityCatchesMutants(t *testing.T) {
	for _, c := range []struct {
		name string
		arm  *bool
	}{
		{"a FLOAT fraction truncated into the direct array", &test.truncate},
		{"a direct array past 2^53", &test.wideDirect},
	} {
		*c.arm = true
		d := checkKeyTableEquality()
		*c.arm = false
		if d == "" {
			t.Errorf("%s: the equality check passes, it cannot see the mutant", c.name)
		}
		t.Logf("%s: %s", c.name, d)
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
	// A hinted table allocates each array it needs once: the direct
	// array for integer keys, the slots for any other.
	for _, hashed := range []bool{false, true} {
		hinted := NewKeyTable(1, 1000)
		var direct *int32
		var slots *keySlot
		for i := 0; i < 1000; i++ {
			key := NewInt(int64(999 - i))
			if hashed {
				key = NewString(fmt.Sprint(i))
			}
			hinted.Insert([]Value{key})
			if i == 0 {
				direct, slots = unsafe.SliceData(hinted.direct), unsafe.SliceData(hinted.slots)
			}
		}
		if unsafe.SliceData(hinted.direct) != direct || unsafe.SliceData(hinted.slots) != slots || (direct == nil) == (slots == nil) {
			t.Errorf("hashed %v: a table hinted for 1000 keys reallocated an array or allocated both (direct %d, slots %d)",
				hashed, len(hinted.direct), len(hinted.slots))
		}
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
// previous keys found — over uses that change width, payload, hint and
// where the keys lie, so that a use's keys meet a direct span another
// use left elsewhere; and a use whose keys fit the storage the previous
// ones grew allocates nothing, direct, hashed or both.
func TestKeyTableReset(t *testing.T) {
	pool := func(spread int) keyDist { return keyDist{name: fmt.Sprint("pool ", spread), spread: spread} }
	from0, across0, at2p53, far := keyDists[3], keyDists[4], keyDists[5], keyDists[6]
	reused := NewKeyTable(1, 0)
	for use, u := range []struct {
		width, payload, hint, keys int
		dist                       keyDist
	}{
		{1, 0, 0, 3000, pool(2000)}, {1, 0, 0, 3000, from0}, {1, 0, 0, 50, pool(40)}, {2, 1, 300, 2000, across0},
		{2, 1, 50, 400, pool(40)}, {1, 0, 0, 500, far}, {0, 2, 0, 5, pool(3)}, {3, 0, 0, 900, at2p53},
		{1, 0, 3000, 2500, pool(2000)}, {1, 1, 64, 3000, from0}, {3, 0, 10, 900, pool(40)}, {1, 2, 0, 3000, pool(2000)},
	} {
		reused.Reset(u.width, u.payload, u.hint)
		fresh := NewPayloadKeyTable(u.width, u.payload, u.hint)
		rng := rand.New(rand.NewSource(int64(use)))
		key := make([]Value, u.width)
		for op := 0; op < u.keys; op++ {
			u.dist.draw(rng, key)
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
	// nothing, whether the keys went direct, were hashed or both.
	for _, form := range []string{"direct", "hashed", "both"} {
		keys := make([][]Value, 2000)
		for i := range keys {
			first := NewInt(int64(i))
			if form == "hashed" || (form == "both" && i%2 == 1) {
				first = NewString(fmt.Sprint(i))
			}
			keys[i] = []Value{first, NewString("k")}
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
			t.Errorf("%s: refilling a reset table with as many keys allocated %.0f times, want 0", form, n)
		}
	}
}

// TestKeyTableStorageBytes: key storage doubles on its own, never by
// append, and the direct array costs at most half the slots it stands in
// for.
//   - Without a hint, over 1 to 5,000 keys, direct or hashed, the cells
//     ever allocated stay within twice what the table holds at the end,
//     and that within twice what the keys fill (or the first step's
//     room).
//   - With a hint the cells are allocated once, exactly the hint's.
//   - A table whose keys all went direct (in order without a hint, in
//     any order within a hint) allocates no slot array. Its direct
//     array has at most as many entries as a table of slots alone would
//     have slots, so it takes at most half their bytes; it is allocated
//     once within a hint, and without one at most once more often than
//     the cells.
func TestKeyTableStorageBytes(t *testing.T) {
	const width = 2
	halfSlots := func(n int) int { return slotsFor(n) * int(unsafe.Sizeof(keySlot{})) / 2 }
	directBytes := func(tab *KeyTable) int { return len(tab.direct) * int(unsafe.Sizeof(int32(0))) }
	for _, payload := range []int{0, 2} {
		stride := width + payload
		for _, hashed := range []bool{false, true} {
			table := NewPayloadKeyTable(width, payload, 0)
			var cells *Value
			var direct *int32
			allocated, cellAllocs, directAllocs := 0, 0, 0
			for n := 1; n <= 5000; n++ {
				first := NewInt(int64(n))
				if hashed {
					first = NewString(fmt.Sprint(n))
				}
				table.Insert([]Value{first, NewString("k")})
				if p := unsafe.SliceData(table.vals); p != cells {
					cells, allocated, cellAllocs = p, allocated+cap(table.vals), cellAllocs+1
				}
				if p := unsafe.SliceData(table.direct); p != direct {
					direct, directAllocs = p, directAllocs+1
				}
				final := cap(table.vals)
				if allocated > 2*final || final > 2*max(n, minKeySlots/2)*stride {
					t.Fatalf("payload %d, hashed %v, %d keys: %d cells allocated in all, %d held, %d filled", payload, hashed, n, allocated, final, n*stride)
				}
				if !hashed && (table.slots != nil || directBytes(table) > halfSlots(n) || directAllocs > cellAllocs+1) {
					t.Fatalf("payload %d, %d keys in order: %d slots, a direct array of %d bytes (half of a table's slots: %d), allocated %d times to the cells' %d",
						payload, n, len(table.slots), directBytes(table), halfSlots(n), directAllocs, cellAllocs)
				}
			}
		}
		for _, hint := range []int{1, 7, 100, 4096, 5000} {
			hinted := NewPayloadKeyTable(width, payload, hint)
			data := unsafe.SliceData(hinted.vals)
			var direct *int32
			directAllocs := 0
			for _, k := range rand.New(rand.NewSource(int64(hint))).Perm(hint) {
				hinted.Insert([]Value{NewInt(int64(k)), NewString("k")})
				if p := unsafe.SliceData(hinted.direct); p != direct {
					direct, directAllocs = p, directAllocs+1
				}
			}
			if cap(hinted.vals) != hint*stride || unsafe.SliceData(hinted.vals) != data {
				t.Errorf("payload %d, hint %d: %d keys hold %d cells, want one allocation of %d", payload, hint, hint, cap(hinted.vals), hint*stride)
			}
			if hinted.slots != nil || directAllocs != 1 || directBytes(hinted) > halfSlots(hint) {
				t.Errorf("payload %d, hint %d: %d slots, a direct array of %d bytes (half of a table's slots: %d) allocated %d times, want no slots and one allocation",
					payload, hint, len(hinted.slots), directBytes(hinted), halfSlots(hint), directAllocs)
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
