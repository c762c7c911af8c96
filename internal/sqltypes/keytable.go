package sqltypes

import "math"

// KeyTable is the engine's one hash-table kernel: it maps key tuples of
// a fixed width to dense ids handed out in first-insertion order. Hash
// join, hash aggregate, distinct and the keyed step maps of the step
// program all sit on it; what they keep per key (chains, accumulators,
// rows) lives in their own slices indexed by id. A table may also
// reserve payload cells after each key (NewPayloadKeyTable): the hash
// aggregate writes its results there and emits each id's cells, key
// then payload, as its output row.
//
// Two keys are equal when every column is: NULL equals NULL (grouping
// semantics — joins reject NULL keys before they get here), INT and
// FLOAT meet by value (1 = 1.0, INT–INT compared exactly, so integers
// beyond 2^53 stay distinct), NaN equals NaN, and -0 equals +0. The hash
// is taken over the float image of a number so that equal keys of mixed
// type collide; it only ever narrows the search, equality is decided on
// the stored values.
//
// Slot order is an implementation detail: nothing may iterate the slots.
// Iterate ids 0..Len()-1, which is insertion order.
type KeyTable struct {
	width  int
	stride int // cells per id: the key's width, then the payload cells
	n      int
	// vals holds each id's cells once, id-major: id occupies
	// vals[id*stride : (id+1)*stride], its key first. Its length is
	// n*stride; its capacity grows with the slots (growVals).
	vals  []Value
	slots []keySlot // open addressing, linear probing; len is a power of two
}

// keySlot is one open-addressing entry: the upper half of the key's
// hash (enough to place it again when the table grows, and to reject
// most non-matching probes without touching the values) and its id.
type keySlot struct {
	hash uint32
	id1  int32 // id+1; 0 marks an empty slot
}

const minKeySlots = 8

// NewKeyTable returns an empty table for keys of the given width, sized
// so that hint keys fit without growing. A hint of 0 starts small.
func NewKeyTable(width, hint int) *KeyTable { return NewPayloadKeyTable(width, 0, hint) }

// NewPayloadKeyTable is NewKeyTable for ids that carry payload cells
// after the key: they start zeroed (NULL), belong to the caller (Row),
// and take no part in hashing or equality. With a hint the key storage
// is exactly hint ids; without one it doubles with the slots.
func NewPayloadKeyTable(width, payload, hint int) *KeyTable {
	t := &KeyTable{}
	t.Reset(width, payload, hint)
	return t
}

// Reset makes t what NewPayloadKeyTable(width, payload, hint) returns,
// over t's own storage: the slot array is cleared and kept if it takes
// hint keys, the cells are cleared and kept if they hold hint ids, and
// only what is too small is allocated again, at the hint. Nothing of the
// old keys survives, and every payload cell starts zeroed. The caller
// must be done with everything Key and Row returned before: those cells
// are the ones the table fills next.
func (t *KeyTable) Reset(width, payload, hint int) {
	slots := minKeySlots
	for slots < 2*hint {
		slots *= 2
	}
	if len(t.slots) >= slots {
		clear(t.slots)
	} else {
		t.slots = make([]keySlot, slots)
	}
	// Every cell past len(vals) is zero (growVals copies only the filled
	// ones, and this clears them), which is what makes payload start NULL.
	clear(t.vals)
	t.vals = t.vals[:0]
	t.width, t.stride, t.n = width, width+payload, 0
	if hint > 0 && cap(t.vals) < hint*t.stride {
		t.vals = make([]Value, 0, hint*t.stride)
	}
}

// Len returns the number of distinct keys inserted.
func (t *KeyTable) Len() int { return t.n }

// Key returns the stored values of key id: the first width cells of its
// stride. The slice is capped; callers must not modify it.
func (t *KeyTable) Key(id int) []Value {
	lo := id * t.stride
	return t.vals[lo : lo+t.width : lo+t.width]
}

// Row returns every cell of id, key then payload, capped. The caller
// may write the payload cells, never the key's. A zero-width row is
// non-nil: a nil row means end of stream to operators.
func (t *KeyTable) Row(id int) Row {
	if t.stride == 0 {
		return Row{}
	}
	lo, hi := id*t.stride, (id+1)*t.stride
	return t.vals[lo:hi:hi]
}

// Insert adds the key (its first width values) unless an equal key is
// present, and returns the key's id and whether it was added. The
// values are copied; key may be a scratch buffer.
func (t *KeyTable) Insert(key []Value) (id int, added bool) {
	key = key[:t.width]
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	h := hashKey(key)
	id, slot := t.lookup(key, h)
	if id >= 0 {
		return id, false
	}
	t.slots[slot] = keySlot{hash: h, id1: int32(t.n + 1)}
	lo := t.n * t.stride
	if lo+t.stride > cap(t.vals) {
		t.growVals()
	}
	t.vals = t.vals[:lo+t.stride]
	copy(t.vals[lo:], key)
	t.n++
	return t.n - 1, true
}

// Find returns the id of the key equal to key, or -1.
func (t *KeyTable) Find(key []Value) int {
	key = key[:t.width]
	id, _ := t.lookup(key, hashKey(key))
	return id
}

// lookup probes for key (hashed to h) and returns its id, or -1 and the
// empty slot where it would go.
func (t *KeyTable) lookup(key []Value, h uint32) (id int, slot uint32) {
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.id1 == 0 {
			return -1, i
		}
		if s.hash == h && keysEqual(t.Key(int(s.id1-1)), key) {
			return int(s.id1 - 1), i
		}
	}
}

// grow doubles the slot array; entries are placed again from their
// stored hash, no key is rehashed.
func (t *KeyTable) grow() {
	old := t.slots
	t.slots = make([]keySlot, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.id1 == 0 {
			continue
		}
		i := s.hash & mask
		for t.slots[i].id1 != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// growVals moves the cells into room for len(slots)/2 ids, as many as
// the slots take before they double again (Insert has just made room
// for the next id there). So key storage doubles with the slots instead
// of growing by append, whose steps shrink toward 1.25x past 256
// elements and allocate several times the final size over a table's
// life. Cells past the copy start zeroed.
func (t *KeyTable) growVals() {
	vals := make([]Value, len(t.vals), len(t.slots)/2*t.stride)
	copy(vals, t.vals)
	t.vals = vals
}

func keysEqual(a, b []Value) bool {
	for i := range a {
		if !KeyEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// KeyEqual is the table's equality on one key column, for code that
// must agree with it without building a table: NULL = NULL, 1 = 1.0,
// NaN = NaN, -0 = +0, integers compared exactly.
func KeyEqual(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if isNumeric(a.T) && isNumeric(b.T) {
		if a.T == Int && b.T == Int {
			return a.I == b.I
		}
		af, bf := a.Float(), b.Float()
		return af == bf || (af != af && bf != bf)
	}
	if a.T != b.T {
		return false
	}
	if a.T == String {
		return a.S == b.S
	}
	return a.I == b.I // Bool
}

// hashKey folds the columns' hashes in order and keeps the upper half,
// which the final multiply-and-fold of mix64 has mixed best.
func hashKey(key []Value) uint32 {
	h := uint64(len(key))
	for _, v := range key {
		h = mix64(h ^ valueHashBits(v))
	}
	return uint32(h >> 32)
}

// Type tags folded into non-numeric hashes so that, say, TRUE and 1 do
// not share a bucket by construction.
const (
	hashTagNull   = 0x9e3779b97f4a7c15
	hashTagBool   = 0xc2b2ae3d27d4eb4f
	hashTagString = 0x165667b19e3779f9
)

// valueHashBits returns the pre-mix hash input of one value: equal
// values (in KeyEqual's sense) give equal bits.
func valueHashBits(v Value) uint64 {
	switch v.T {
	case Int:
		return floatHashBits(float64(v.I))
	case Float:
		return floatHashBits(v.F)
	case Bool:
		return uint64(v.I) ^ hashTagBool
	case String:
		// FNV-1a over the bytes; mix64 spreads it afterwards.
		h := uint64(14695981039346656037)
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= 1099511628211
		}
		return h ^ hashTagString
	}
	return hashTagNull
}

func floatHashBits(f float64) uint64 {
	if f == 0 {
		return 0 // -0 and +0 are equal
	}
	if f != f {
		return 0x7ff8000000000001 // every NaN payload is the same key
	}
	return math.Float64bits(f)
}

// mix64 is the MurmurHash3 finalizer: a bijection on 64 bits whose
// leading fold matters here, because the float image of a small integer
// has only its top bits set.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
