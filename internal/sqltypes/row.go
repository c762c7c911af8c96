package sqltypes

import (
	"math"
	"strings"
)

// Row is a single tuple of values.
type Row []Value

// Clone returns a deep copy of the row (Values are immutable so a
// shallow slice copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows have identical values (NULL equals NULL
// here; this is storage equality, not SQL expression equality). It is
// used by the Delta termination condition to detect changed rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i].IsNull() != o[i].IsNull() {
			return false
		}
		if r[i].IsNull() {
			continue
		}
		if Compare(r[i], o[i]) != 0 {
			return false
		}
	}
	return true
}

// String renders the row as a comma-separated list, for tests and debug
// output.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// Column describes one column of a schema.
type Column struct {
	// Name is the (unqualified) column name.
	Name string
	// Type is the declared or inferred type.
	Type Type
}

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the position of the named column (case
// insensitive), or -1 if absent.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// String renders the schema as "(a INT, b FLOAT)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// RowKey builds the routing key of a row from the given column
// positions. Nothing in the engine routes through it any more: it is
// the reference PartitionOf is tested against (RowKey(...).Partition),
// and the benchmark's key probe times it. (Joins, grouping and the keyed
// steps hash through KeyTable.)
func RowKey(r Row, cols []int) CompositeKey {
	switch len(cols) {
	case 0:
		return CompositeKey{}
	case 1:
		return CompositeKey{K1: r[cols[0]].Key(), N: 1}
	case 2:
		return CompositeKey{K1: r[cols[0]].Key(), K2: r[cols[1]].Key(), N: 2}
	case 3:
		return CompositeKey{K1: r[cols[0]].Key(), K2: r[cols[1]].Key(), K3: r[cols[2]].Key(), N: 3}
	}
	// Wide keys fall back to a string encoding.
	var b strings.Builder
	hasNull := false
	for _, c := range cols {
		k := r[c].Key()
		if k.IsNull() {
			hasNull = true
		}
		encodeKey(&b, k)
		b.WriteByte(0)
	}
	return CompositeKey{Wide: b.String(), N: len(cols), wideNull: hasNull}
}

func encodeKey(b *strings.Builder, k Key) {
	switch k.k {
	case keyNull:
		b.WriteByte('n')
	case keyBool:
		b.WriteByte('b')
		if k.i != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	case keyNum:
		b.WriteByte('f')
		// Fixed-width binary encoding of the float bits.
		bits := floatBits(k.f)
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(bits >> (8 * i)))
		}
	case keyStr:
		b.WriteByte('s')
		b.WriteString(k.s)
	}
}

func floatBits(f float64) uint64 {
	// Normalize -0 to +0, and every NaN payload to one, so that values
	// Compare calls equal hash identically.
	if f == 0 {
		f = 0
	}
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f)
}

// CompositeKey is a comparable key over up to three columns, with a
// string fallback for wider keys. The zero CompositeKey is the empty
// (zero-column) key.
type CompositeKey struct {
	K1, K2, K3 Key
	Wide       string
	N          int
	wideNull   bool
}

// Hash returns a 64-bit hash of the key, used by the MPP layer to
// route rows to partitions. Equal keys hash equally.
func (k CompositeKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix64 := func(u uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	}
	mixKey := func(kk Key) {
		mix(byte(kk.k))
		switch kk.k {
		case keyBool:
			mix(byte(kk.i))
		case keyNum:
			mix64(floatBits(kk.f))
		case keyStr:
			for i := 0; i < len(kk.s); i++ {
				mix(kk.s[i])
			}
		}
	}
	if k.Wide != "" {
		for i := 0; i < len(k.Wide); i++ {
			mix(k.Wide[i])
		}
		return h
	}
	if k.N >= 1 {
		mixKey(k.K1)
	}
	if k.N >= 2 {
		mixKey(k.K2)
	}
	if k.N >= 3 {
		mixKey(k.K3)
	}
	return h
}

// Partition defines THE routing function of the simulated MPP engine: it
// maps a key to the partition that owns rows with that key, and every
// layer that places rows — storage inserts on a table's DistCol, the
// MPP shuffle exchange, the full-row distinct exchange, the keyed merge
// — must agree on it (they all call PartitionOf, its in-place form),
// because the static partition-property analysis
// (internal/distprop) licenses shuffle elision exactly on the claim
// "rows keyed k already live in partition k.Partition(parts)".
//
// Contract:
//   - parts <= 1: everything is partition 0.
//   - any NULL component: partition 0 (NULL never matches in SQL
//     equality, so co-locating all NULLs is always safe and keeps the
//     routing total).
//   - a single component: the single-value hash (untagged,
//     numeric values via their float bits so 1 and 1.0 co-locate) — the
//     same function storage has always used for DistCol inserts, so
//     base-table layouts are unchanged.
//   - wider keys: the composite Hash().
func (k CompositeKey) Partition(parts int) int {
	if k.N == 1 && k.Wide == "" {
		return k.K1.partition(parts)
	}
	if parts <= 1 || k.HasNull() {
		return 0
	}
	return int(k.Hash() % uint64(parts))
}

// PartitionOf is THE routing function, computed from r's values at cols
// in place: it returns RowKey(r, cols).Partition(parts) — the contract
// above — without building a Key, a CompositeKey or a wide key's string.
// Storage routes DistCol inserts through it, and so do the MPP exchanges
// and the keyed merge's new keys. A power-of-two partition count masks
// the hash instead of dividing it, which picks the same partition.
func PartitionOf(r Row, cols []int, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint64(fnvOffset)
	switch len(cols) {
	case 1:
		// Untagged: the historical single-value hash.
		v := r[cols[0]]
		switch v.T {
		case Int:
			h = fnvNum(h, float64(v.I))
		case Float:
			h = fnvNum(h, v.F)
		case String:
			h = fnvString(h, v.S)
		case Bool:
			h = fnvByte(h, byte(v.I))
		default:
			return 0
		}
	case 2, 3, 0:
		// CompositeKey.Hash: each component's kind, then its payload.
		for _, c := range cols {
			v := r[c]
			switch v.T {
			case Int:
				h = fnvNum(fnvByte(h, byte(keyNum)), float64(v.I))
			case Float:
				h = fnvNum(fnvByte(h, byte(keyNum)), v.F)
			case String:
				h = fnvString(fnvByte(h, byte(keyStr)), v.S)
			case Bool:
				h = fnvByte(fnvByte(h, byte(keyBool)), byte(v.I))
			default:
				return 0
			}
		}
	default:
		// The hash of the wide key's string (encodeKey), byte for byte.
		for _, c := range cols {
			v := r[c]
			switch v.T {
			case Int:
				h = fnvNum(fnvByte(h, 'f'), float64(v.I))
			case Float:
				h = fnvNum(fnvByte(h, 'f'), v.F)
			case String:
				h = fnvString(fnvByte(h, 's'), v.S)
			case Bool:
				b := byte('0')
				if v.I != 0 {
					b = '1'
				}
				h = fnvByte(fnvByte(h, 'b'), b)
			default:
				return 0
			}
			h = fnvByte(h, 0)
		}
	}
	if parts&(parts-1) == 0 {
		return int(h & uint64(parts-1))
	}
	return int(h % uint64(parts))
}

// PartitionsOf routes a batch in one pass: it sets dst[i] to
// PartitionOf(rows[i], cols, parts) for every row, dst being at least as
// long as rows. A storage table places a batch of rows through it
// (storage.Table.PlaceBatch), and an MPP exchange the key cells of a batch
// of join tuples.
func PartitionsOf(dst []int32, rows []Row, cols []int, parts int) {
	dst = dst[:len(rows)]
	if parts <= 1 {
		clear(dst)
		return
	}
	if len(cols) != 1 {
		for i, r := range rows {
			dst[i] = int32(PartitionOf(r, cols, parts))
		}
		return
	}
	// One column, the common case: its cell's single-value hash, inline.
	c, mask := cols[0], uint64(parts-1)
	for i, r := range rows {
		h := uint64(fnvOffset)
		switch v := &r[c]; v.T {
		case Int:
			h = fnvNum(h, float64(v.I))
		case Float:
			h = fnvNum(h, v.F)
		default:
			dst[i] = int32(PartitionOf(r, cols, parts))
			continue
		}
		if parts&(parts-1) == 0 {
			dst[i] = int32(h & mask)
		} else {
			dst[i] = int32(h % uint64(parts))
		}
	}
}

// FNV-1a, the routing hash, a byte at a time.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// fnvNum folds in a number's normalized float bits, low byte first.
func fnvNum(h uint64, f float64) uint64 {
	u := floatBits(f)
	h = (h ^ u&0xff) * fnvPrime
	h = (h ^ u>>8&0xff) * fnvPrime
	h = (h ^ u>>16&0xff) * fnvPrime
	h = (h ^ u>>24&0xff) * fnvPrime
	h = (h ^ u>>32&0xff) * fnvPrime
	h = (h ^ u>>40&0xff) * fnvPrime
	h = (h ^ u>>48&0xff) * fnvPrime
	return (h ^ u>>56) * fnvPrime
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// partition is the single-value routing function: partition 0 for NULL
// or a single partition, otherwise FNV-1a over the normalized scalar
// without a type tag, matching the historical storage-layer hash so
// existing base-table layouts are preserved.
func (k Key) partition(parts int) int {
	if parts <= 1 || k.k == keyNull {
		return 0
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	switch k.k {
	case keyNum:
		u := floatBits(k.f)
		for i := 0; i < 64; i += 8 {
			h = (h ^ (u >> i & 0xff)) * prime
		}
	case keyStr:
		for i := 0; i < len(k.s); i++ {
			h = (h ^ uint64(k.s[i])) * prime
		}
	case keyBool:
		h = (h ^ uint64(byte(k.i))) * prime
	}
	return int(h % uint64(parts))
}

// HasNull reports whether any component of the key is NULL; hash joins
// use this to skip NULL keys (NULL never matches in SQL equality).
func (k CompositeKey) HasNull() bool {
	if k.Wide != "" {
		return k.wideNull
	}
	if k.N >= 1 && k.K1.IsNull() {
		return true
	}
	if k.N >= 2 && k.K2.IsNull() {
		return true
	}
	if k.N >= 3 && k.K3.IsNull() {
		return true
	}
	return false
}
