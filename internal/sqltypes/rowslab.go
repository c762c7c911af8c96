package sqltypes

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// RowSlab hands out rows carved from shared chunks instead of one
// allocation per row. A row is a three-index slice (len == cap), so an
// append to it reallocates instead of running into its neighbour, and
// rows start zeroed (all NULL). Chunks grow geometrically from a few
// rows: a small result pays for a small chunk. The zero RowSlab is ready
// to use.
//
// A chunk lives as long as any row carved from it: emitted rows are
// immutable, and tables replace rows, never write into them. Without an
// arena that is the garbage collector's to tell, with a bound on what
// one surviving row can pin (maxSlabRows rows). A slab carving for an
// arena (CarveFor) takes its chunks from the arena's pool and records
// them; they are carved again only after the table owning the arena
// handed them back (Arena.Release), which the result store does only
// for a table no slot binds and no reader kept rows of.
type RowSlab struct {
	buf   []Value // current chunk
	pos   int     // first free cell of buf
	rows  int     // rows handed out so far; sizes the next chunk
	arena *Arena  // where chunks come from and are recorded; nil: make
}

const (
	minSlabRows = 4
	maxSlabRows = 256
)

// CarveFor makes s take its chunks from a's pool and record them in a
// (nil: allocate them).
func (s *RowSlab) CarveFor(a *Arena) { s.arena = a }

// Reset drops the rows handed out so far; s keeps carving for its arena.
func (s *RowSlab) Reset() { *s = RowSlab{arena: s.arena} }

// Alloc returns a zeroed row of the given width.
func (s *RowSlab) Alloc(width int) Row {
	if width == 0 {
		return Row{} // non-nil: a nil row means end of stream to operators
	}
	if s.pos+width > len(s.buf) {
		n := min(max(s.rows, minSlabRows), maxSlabRows) * width
		if s.arena != nil {
			s.buf = s.arena.chunk(n)
		} else {
			s.buf = make([]Value, n)
		}
		s.pos = 0
	}
	r := s.buf[s.pos : s.pos+width : s.pos+width]
	s.pos += width
	s.rows++
	return r
}

// Recycle takes back the row the latest Alloc returned, which nobody
// else may have seen (a join candidate its residual rejected): the next
// Alloc hands the same cells out again, zeroed.
func (s *RowSlab) Recycle(r Row) {
	clear(r)
	s.pos -= len(r)
	s.rows--
}

// Arena records the chunks one table's rows were carved from, for the
// table to hand back to their pool. The zero Arena owns nothing.
type Arena struct {
	pool   *ChunkPool
	chunks [][]Value
}

// NewArena returns an empty arena over pool's chunks.
func NewArena(pool *ChunkPool) Arena { return Arena{pool: pool} }

// Owned reports whether the arena carves from a pool.
func (a *Arena) Owned() bool { return a.pool != nil }

// chunk returns a zeroed chunk of n cells from the pool, recorded in a
// list an earlier arena gave back or one with room for 16 (2,560 rows).
func (a *Arena) chunk(n int) []Value {
	p := a.pool
	if a.chunks == nil {
		if a.chunks = p.lists.Take(); a.chunks == nil {
			a.chunks = make([][]Value, 0, 16)
		}
	}
	c, ok := p.chunks.TakeFit(func(c []Value) bool { return len(c) == n })
	if clear(c); !ok {
		c = make([]Value, n)
	}
	a.chunks = append(a.chunks, c)
	return c
}

// Part returns an empty partition slice with room for n rows from the
// arena's pool (ChunkPool.Part), a new one when it carves from none.
func (a *Arena) Part(n int) []Row { return a.pool.Part(n) }

// Adopt moves b's chunks to a, which carves from the same pool, and
// reports whether it did: they go back when a is released, and b, still
// over its pool, hands back only its table's partition slices. Nothing
// may carve for either meanwhile.
func (a *Arena) Adopt(b *Arena) bool {
	if a.pool == nil || a.pool != b.pool {
		return false
	}
	switch {
	case a.chunks == nil:
		a.chunks, b.chunks = b.chunks, nil
	case b.chunks != nil:
		a.chunks = append(a.chunks, b.chunks...)
		clear(b.chunks)
		a.pool.lists.Give(b.chunks[:0])
		b.chunks = nil
	}
	return true
}

// Release hands the arena's chunks and parts, its table's partition
// slices, back to the pool, counting cells as freed when it carved any
// of them: nothing may read them afterwards. With keep set the rows
// outlive the arena and only its list goes back. The arena owns nothing
// after.
func (a *Arena) Release(parts [][]Row, cells int64, keep bool) {
	p := a.pool
	if !keep {
		poison := poisoning.Load() > 0
		for _, c := range a.chunks {
			if poison {
				for i := range c {
					c[i] = Poisoned
				}
			}
			p.chunks.Give(c)
		}
		for _, s := range parts {
			if cap(s) > 0 {
				clear(s)
				p.parts.Give(s[:0])
			}
		}
		p.mu.Lock()
		if p.freed != nil && len(a.chunks) > 0 {
			*p.freed += cells
		}
		p.mu.Unlock()
	}
	if cap(a.chunks) > 0 {
		clear(a.chunks)
		p.lists.Give(a.chunks[:0])
	}
	*a = Arena{}
}

// ChunkPool is a statement's free list of what arenas hand back: row
// chunks, partition slices and chunk lists, each kept by the rules of
// Spares. A table of the last one's shape is carved from exactly its
// chunks. A chunk or partition slice a loop iteration let go and nobody
// took between two back-edges is dropped at the second (Sweep). A clean
// run carries what it let go into the statement's next run (HandBack),
// whose first sweep drops what it did not take; any other run drops
// every chunk and partition slice when it ends (Reset). The chunk lists,
// a few headers each, stay. Bytes says what the pool carries, for the
// statement cache's ceiling. The zero value is empty; it is safe for
// concurrent use.
type ChunkPool struct {
	chunks Spares[[]Value]
	parts  Spares[[]Row]
	lists  Spares[[][]Value]
	mu     sync.Mutex // guards freed
	freed  *int64
}

// Part returns an empty partition slice with room for n rows, one handed
// back if the pool (nil: none) has one that large; nil for none.
func (p *ChunkPool) Part(n int) []Row {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return make([]Row, 0, n)
	}
	if s, ok := p.parts.TakeFit(func(s []Row) bool { return cap(s) >= n }); ok {
		return s
	}
	return make([]Row, 0, n)
}

// Sweep drops the chunks and partition slices a loop iteration let go
// and no one took since the previous sweep (Spares.Sweep); the loop
// operator calls it at the back-edge.
func (p *ChunkPool) Sweep() {
	if p == nil {
		return
	}
	p.chunks.Sweep()
	p.parts.Sweep()
}

// Begin starts a run over the pool: the cells of the tables released
// from now on are counted into freed (nil: nowhere).
func (p *ChunkPool) Begin(freed *int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.freed = freed
}

// HandBack ends a clean run: the chunks and partition slices it let go
// are carried into the statement's next run, less what it was carried
// and did not take (Spares.HandBack), and released cells count nowhere.
func (p *ChunkPool) HandBack() {
	p.chunks.HandBack()
	p.parts.HandBack()
	p.Begin(nil)
}

// Reset drops every chunk and partition slice, and counts the cells of
// the tables released from now on nowhere: the end of a run that carries
// nothing, or a statement whose carried chunks the statement cache's
// ceiling drops.
func (p *ChunkPool) Reset() {
	p.chunks.Clear()
	p.parts.Clear()
	p.Begin(nil)
}

// Bytes returns the bytes of the chunks and partition slices p holds.
func (p *ChunkPool) Bytes() int64 {
	return p.chunks.Size(func(c []Value) int64 { return int64(cap(c)) * valueBytes }) +
		p.parts.Size(func(s []Row) int64 { return int64(cap(s)) * rowBytes })
}

const (
	valueBytes = int64(unsafe.Sizeof(Value{}))
	rowBytes   = int64(unsafe.Sizeof(Row{}))
)

// Poisoned is what a chunk handed back holds while Poison is armed: a
// value no test table holds, so a reader that kept a row of it shows it.
var Poisoned = NewString("<reused>")

var poisoning atomic.Int32

// Poison arms the lifetime guard of row chunks until the returned
// function is called: a chunk handed back is filled with Poisoned at
// once, so a reader that kept its rows reads a wrong value in every run,
// not only in those that carve it again first. Tests arm it.
func Poison() (disarm func()) {
	poisoning.Add(1)
	return func() { poisoning.Add(-1) }
}

// Poisoning reports whether Poison is armed: a buffer that is not a chunk
// — an MPP exchange's, which the machine fills again — is then poisoned
// too, the moment it may be filled again.
func Poisoning() bool { return poisoning.Load() > 0 }
