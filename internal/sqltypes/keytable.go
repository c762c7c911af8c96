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
// beyond 2^53 stay distinct), NaN equals NaN, and -0 equals +0.
//
// A key sits in exactly one of two places. If its first column is an
// integral number k with |k| < 2^53 — an INT, or a FLOAT equal to its
// truncation, so -0 is 0 — and k lies in the span the table indexes
// directly, direct[k-lo] holds its id, unless an earlier key with the
// same first column holds that entry. Every other key is hashed into
// open-addressing slots: NULL, NaN, a fraction, a string, a bool, an
// integer of 2^53 or more, a key outside the span, and a key of width 2
// or more whose first column's entry another key holds. The 2^53 bound
// keeps the one non-transitive corner of the equality out of the
// direct array: INT 2^53+1 equals FLOAT 2^53 but not INT 2^53, so all
// three are hashed. Below it a direct key equals exactly the values
// that map to its k, so the array decides width-1 keys outright and
// narrows wider ones to one candidate. The span is chosen by the table,
// from its hint and its keys; a key it does not cover costs a hashed
// entry, never a wrong answer. Ids, and so every output order, are
// those of a table with slots alone.
//
// The hash is taken over the float image of a number so that equal
// keys of mixed type collide; it only ever narrows the search, equality
// is decided on the stored values.
//
// Slot order is an implementation detail: nothing may iterate the slots.
// Iterate ids 0..Len()-1, which is insertion order.
type KeyTable struct {
	width  int
	stride int // cells per id: the key's width, then the payload cells
	n      int
	hint   int
	// vals holds each id's cells once, id-major: id occupies
	// vals[id*stride : (id+1)*stride], its key first. Its length is
	// n*stride; its capacity is the hint's ids, and past them it doubles
	// (growVals).
	vals []Value
	// direct indexes the keys whose first column is an integral k in
	// [lo, lo+len(direct)): direct[k-lo] is id+1 of the first of them,
	// 0 none. dmin and dmax are the least and greatest k it holds
	// (dmin > dmax: none).
	direct     []int32
	lo         int64
	dmin, dmax int64
	// slots hash every other key; hashed counts them. The array is made
	// at the first hashed key, and it is all empty while hashed is 0.
	slots  []keySlot // open addressing, linear probing; len is a power of two
	hashed int
}

// keySlot is one open-addressing entry: the upper half of the key's
// hash (enough to place it again when the table grows, and to reject
// most non-matching probes without touching the values) and its id.
type keySlot struct {
	hash uint32
	id1  int32 // id+1; 0 marks an empty slot
}

const minKeySlots = 8

// slotsFor returns the slot count that takes keys keys at a load of at
// most one half: a power of two, at least minKeySlots. It also bounds
// the direct span of a table whose cells hold keys ids, so the direct
// array takes at most half the bytes of the slots it stands in for.
func slotsFor(keys int) int {
	slots := minKeySlots
	for slots < 2*keys {
		slots *= 2
	}
	return slots
}

// NewKeyTable returns an empty table for keys of the given width, sized
// so that hint keys fit without growing. A hint of 0 starts small.
func NewKeyTable(width, hint int) *KeyTable { return NewPayloadKeyTable(width, 0, hint) }

// NewPayloadKeyTable is NewKeyTable for ids that carry payload cells
// after the key: they start zeroed (NULL), belong to the caller (Row),
// and take no part in hashing or equality. With a hint the key storage
// is exactly hint ids; without one it doubles from minKeySlots/2.
func NewPayloadKeyTable(width, payload, hint int) *KeyTable {
	t := &KeyTable{}
	t.Reset(width, payload, hint)
	return t
}

// Reset makes t what NewPayloadKeyTable(width, payload, hint) returns,
// over t's own storage: the slot and direct arrays are cleared and kept,
// the cells are cleared and kept if they hold hint ids, and only what is
// too small is allocated again, at the hint. Nothing of the old keys
// survives, and every payload cell starts zeroed. The caller must be
// done with everything Key and Row returned before: those cells are the
// ones the table fills next.
func (t *KeyTable) Reset(width, payload, hint int) {
	if t.hashed > 0 {
		clear(t.slots)
		t.hashed = 0
	}
	if t.direct != nil && t.dmin <= t.dmax { // a zero KeyTable has neither
		clear(t.direct[t.dmin-t.lo : t.dmax-t.lo+1])
	}
	t.dmin, t.dmax = math.MaxInt64, math.MinInt64
	// Every cell past len(vals) is zero (growVals copies only the filled
	// ones, and this clears them), which is what makes payload start NULL.
	clear(t.vals)
	t.vals = t.vals[:0]
	t.width, t.stride, t.n, t.hint = width, width+payload, 0, hint
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
	if t.width > 0 {
		if k, ok := directKey(key[0]); ok && (t.covers(k) || t.cover(k)) {
			d := &t.direct[k-t.lo]
			if *d == 0 {
				id = t.add(key)
				*d = int32(id + 1)
				t.dmin, t.dmax = min(t.dmin, k), max(t.dmax, k)
				return id, true
			}
			if id = int(*d - 1); t.width == 1 || keysEqual(t.Key(id)[1:], key[1:]) {
				return id, false
			}
		}
	}
	if t.hashed == 0 {
		if want := slotsFor(t.hint - t.n); len(t.slots) < want {
			t.slots = make([]keySlot, want)
		}
	} else if 2*(t.hashed+1) > len(t.slots) {
		t.grow()
	}
	h := hashKey(key)
	id, slot := t.lookup(key, h)
	if id >= 0 {
		return id, false
	}
	id = t.add(key)
	t.slots[slot] = keySlot{hash: h, id1: int32(id + 1)}
	t.hashed++
	return id, true
}

// Find returns the id of the key equal to key, or -1. A table none of
// whose keys went direct goes straight to the slots.
func (t *KeyTable) Find(key []Value) int {
	key = key[:t.width]
	if t.dmin <= t.dmax {
		if k, ok := directKey(key[0]); ok && t.covers(k) {
			// An empty entry means no key has this first column: cover
			// moved every hashed one the span reached into the array.
			d := t.direct[k-t.lo]
			if d == 0 {
				return -1
			}
			if id := int(d - 1); t.width == 1 || keysEqual(t.Key(id)[1:], key[1:]) {
				return id
			}
		}
	}
	if t.hashed == 0 {
		return -1
	}
	id, _ := t.lookup(key, hashKey(key))
	return id
}

// add stores key's cells as the next id and returns it.
func (t *KeyTable) add(key []Value) int {
	lo := t.n * t.stride
	if lo+t.stride > cap(t.vals) {
		t.growVals()
	}
	t.vals = t.vals[:lo+t.stride]
	copy(t.vals[lo:], key)
	t.n++
	return t.n - 1
}

// directKey returns k when v is an integral number k with |k| < 2^53: an
// INT, or a FLOAT equal to its truncation (-0 gives 0; NaN and the
// infinities fail the bound).
func directKey(v Value) (int64, bool) {
	switch v.T {
	case Int:
		if (v.I > -1<<53 && v.I < 1<<53) || (test.wideDirect && v.I > -1<<60 && v.I < 1<<60) {
			return v.I, true
		}
	case Float:
		if f := v.F; (f > -1<<53 && f < 1<<53) || (test.wideDirect && f > -1<<60 && f < 1<<60) {
			if k := int64(f); float64(k) == f || test.truncate {
				return k, true
			}
		}
	}
	return 0, false
}

// covers reports whether k lies in the direct span.
func (t *KeyTable) covers(k int64) bool { return uint64(k-t.lo) < uint64(len(t.direct)) }

// cover moves or grows the direct span so that it takes k as well as
// every key it holds, and reports whether it could. The span may reach
// as many entries as the slot array of a table of slots alone, sized for
// the hint or for the keys with this one, would have; so the array is
// allocated at the first key and then no more often than the cells grow.
// It is placed at 0 when the keys fit there, and otherwise with three
// quarters of its slack on the side k extends, so keys that arrive in
// order move it O(log span) times. Keys hashed before the span reached
// them move into it (migrate).
func (t *KeyTable) cover(k int64) bool {
	a, b := min(k, t.dmin), max(k, t.dmax)
	need, span := b-a+1, int64(len(t.direct))
	if need > span {
		limit := int64(slotsFor(max(t.n+1, t.hint)))
		if need > limit {
			return false
		}
		span = limit
	}
	slack := span - need
	var lo int64
	switch {
	case a >= 0 && b < span:
		lo = 0
	case k == b:
		lo = a - slack/4
	default:
		lo = b + 1 + slack/4 - span
	}
	old, oldLo := t.direct, t.lo
	if span != int64(len(old)) {
		t.direct = make([]int32, span)
	}
	t.lo = lo
	if t.dmin <= t.dmax {
		// Move the held entries; in place, clear where they no longer are.
		i, j, shift := t.dmin-oldLo, t.dmax-oldLo+1, oldLo-lo
		copy(t.direct[i+shift:j+shift], old[i:j])
		if len(old) == len(t.direct) {
			if shift > 0 {
				clear(t.direct[i:min(j, i+shift)])
			} else {
				clear(t.direct[max(i, j+shift):j])
			}
		}
	}
	if t.hashed > 0 {
		t.migrate()
	}
	return true
}

// migrate keeps the rule that an empty direct entry means no such key:
// after the span moved, each k it now covers whose entry is empty takes
// the first hashed key with that first column, and the slots are filled
// again with the rest.
func (t *KeyTable) migrate() {
	if test.keepHashed {
		return
	}
	clear(t.slots)
	t.hashed = 0
	for id := range t.n {
		key := t.Key(id)
		if k, ok := directKey(key[0]); ok && t.covers(k) {
			d := &t.direct[k-t.lo]
			if *d == 0 {
				*d = int32(id + 1)
				t.dmin, t.dmax = min(t.dmin, k), max(t.dmax, k)
			}
			if *d == int32(id+1) {
				continue
			}
		}
		t.place(keySlot{hash: hashKey(key), id1: int32(id + 1)})
		t.hashed++
	}
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
	for _, s := range old {
		if s.id1 != 0 {
			t.place(s)
		}
	}
}

// place puts s into the first empty slot from its hash on.
func (t *KeyTable) place(s keySlot) {
	mask := uint32(len(t.slots) - 1)
	i := s.hash & mask
	for t.slots[i].id1 != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// growVals moves the cells into room for the next power of two of ids
// (at least minKeySlots/2): as many as a table of slots alone would
// hold before its slots double again. So key storage doubles instead of
// growing by append, whose steps shrink toward 1.25x past 256 elements
// and allocate several times the final size over a table's life. Cells
// past the copy start zeroed.
func (t *KeyTable) growVals() {
	vals := make([]Value, len(t.vals), slotsFor(t.n+1)/2*t.stride)
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
