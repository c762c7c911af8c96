package sqltypes

// RowSlab hands out rows carved from shared chunks instead of one
// allocation per row. A row is a three-index slice (len == cap), so an
// append to it reallocates instead of running into its neighbour, and
// rows start zeroed (all NULL). Chunks grow geometrically from a few
// rows: a small result pays for a small chunk. The zero RowSlab is ready
// to use.
//
// A chunk lives as long as any row carved from it. That is the contract
// emitted rows already obey — immutable once emitted, and tables replace
// rows, never write into them — plus a bound on what one surviving row
// can pin (maxSlabRows rows).
type RowSlab struct {
	buf  []Value // current chunk
	pos  int     // first free cell of buf
	rows int     // rows handed out so far; sizes the next chunk
}

const (
	minSlabRows = 4
	maxSlabRows = 256
)

// Alloc returns a zeroed row of the given width.
func (s *RowSlab) Alloc(width int) Row {
	if width == 0 {
		return Row{} // non-nil: a nil row means end of stream to operators
	}
	if s.pos+width > len(s.buf) {
		n := min(max(s.rows, minSlabRows), maxSlabRows)
		s.buf, s.pos = make([]Value, n*width), 0
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
