package mpp

import (
	"slices"

	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// A site is the memory of one hash exchange: what a loop would otherwise
// build again on every pass, and a prepared statement on every run.
// Partition p's tree copies each row it produces into bucket [p][dst]
// while it runs; deliver then lists every destination's rows. The
// machine keeps the site under the exchange's key, and the next
// evaluation of the same plan node — in this run, or in the statement's
// next (Sites) — fills it again in place, if the fragment that read the
// rows is done and kept none of them (free, set by release). Otherwise
// the rows are somebody's — a sort's, a join's build side, a table
// Materialize made of them, the rows a run returned — and the exchange
// gets a new site. A site filled before the run's first back-edge — by
// the steps in front of its loop or by the loop's first iteration, before
// the machine's first Sweep — stays until the run ends, for the
// statement's next run to fill again; one a later iteration filled goes
// at the first back-edge that follows an iteration which did not fill
// it.
type site struct {
	buckets []bucket         // source-major: [source*parts+destination]
	out     [][]sqltypes.Row // per destination, the buckets' rows
	fills   []fillScratch    // per source, its routing loop's scratch
	free    bool
	filled  bool // since the last Sweep
	preLoop bool // filled before the machine's first Sweep: no Sweep drops it
	carried bool // handed to the run by the statement's previous one, and not filled since
}

// Sites are a machine's exchange sites, by the exchange they serve. A
// statement keeps the ones its last clean run left free (HandBack), and
// the machine of its next run starts from them (Resume), so that a
// prepared statement's exchanges fill the buffers of its previous run
// instead of allocating: plan nodes are the statement's, the same in
// every run.
type Sites map[siteKey]*site

// Resume makes s, which must not be nil, the map the machine keeps its
// sites in: its exchanges fill again the sites of s that are free, as
// they would the machine's own from an earlier evaluation.
func (m *Machine) Resume(s Sites) { m.sites = s }

// HandBack ends a clean run of the machine: of its sites it keeps those
// whose readers let go of them (free) and drops the rest — those whose
// rows somebody kept, which may be in the rows the run returned — and
// those it was handed (Resume) and did not fill.
func (m *Machine) HandBack() {
	for k, s := range m.sites {
		if m.test.handBackKept {
			s.free = true
		}
		if !s.free || s.carried {
			delete(m.sites, k)
		}
		s.carried, s.preLoop = true, false
	}
}

// siteKey names an exchange by the plan node whose rows it routes, as
// Fragment.Inputs names a cut. again tells one node's two exchanges
// apart: pre-aggregated groups are regrouped and may then feed a routed
// cut (eval) — the second fills its site while it reads the first's.
type siteKey struct {
	n     plan.Node
	again bool
}

// bucket holds the rows one source sent to one destination, their cells
// in chunks of 16 rows doubling to 256 — not in one slice that append
// would grow by copying — so the first fill costs the content once and
// the next ones nothing.
type bucket struct {
	rows   []sqltypes.Row     // in arrival order
	chunks [][]sqltypes.Value // their cells
	next   int                // chunks[next:] are not written (they are there after a rewind)
	room   []sqltypes.Value   // what is left of chunks[next-1]
	_      [48]byte           // two cache lines: the next bucket may be another worker's
}

// row returns room for the next row of w cells, which the caller writes
// in full.
func (b *bucket) row(w int) sqltypes.Row {
	if b.next == 0 || len(b.room) < w {
		if b.next == len(b.chunks) {
			b.chunks = append(b.chunks, nil)
		}
		if c := b.chunks[b.next]; c == nil || len(c) < w {
			b.chunks[b.next] = make([]sqltypes.Value, w*(16<<min(b.next, 4))) // non-nil at width 0: a nil row ends a stream
		}
		b.room = b.chunks[b.next]
		b.next++
	}
	row := b.room[:w:w]
	b.room = b.room[w:]
	b.rows = append(b.rows, row)
	return row
}

// add copies r into the bucket.
func (b *bucket) add(r sqltypes.Row) { copy(b.row(len(r)), r) }

// fillScratch is one source's routing scratch: a batch of its tree's
// rows, their destinations, and a key's values.
type fillScratch struct {
	rows []sqltypes.Row
	dst  []int32
	vals sqltypes.Row
}

// site returns the buffers the exchange k fills: the ones it filled last
// time, rewound, if their reader has let go of them; else new ones.
func (m *Machine) site(k siteKey) *site {
	s := m.sites[k]
	if s == nil || !s.free {
		s = &site{buckets: make([]bucket, m.Parts*m.Parts), out: make([][]sqltypes.Row, m.Parts), fills: make([]fillScratch, m.Parts)}
		m.sites[k] = s
		m.made++
	}
	for i := range s.buckets {
		b := &s.buckets[i]
		b.rows, b.next, b.room = b.rows[:0], 0, nil
	}
	s.free, s.filled, s.carried = false, true, false
	return s
}

// fill drains op, partition p's tree, into p's buckets, a batch at a
// time in the form the tree's shape takes (exec.Drainer): each row is
// copied before the next batch is asked for, so op may lend its rows, and
// a chain of joins at the root hands over its tuples, whose cells go
// straight into the bucket their key routes them to. Where a key fails to
// evaluate, the rows before it are routed and the drain stops there.
func (s *site) fill(p int, op exec.Operator, to *router, cc *exec.CancelChecker) error {
	var d exec.Drainer
	if err := d.Open(op, true); err != nil {
		return err
	}
	defer d.Close()
	parts := len(s.out)
	mine, sc := s.buckets[p*parts:(p+1)*parts], &s.fills[p]
	sc.vals = slices.Grow(sc.vals[:0], len(to.keys))[:len(to.keys)]
	defer func() { clear(sc.rows[:cap(sc.rows)]) }()
	if !d.Batched() {
		for {
			r, err := op.Next()
			if err != nil || r == nil {
				return err
			}
			if err := cc.Tick(); err != nil {
				return err
			}
			dst, err := to.route(r, sc.vals, parts)
			if err != nil {
				return err
			}
			mine[dst].add(r)
		}
	}
	ts := d.Tuples()
	for {
		var ok bool
		var err error
		if sc.rows, ok, err = d.Next(sc.rows[:0]); err != nil || !ok {
			return err
		}
		n := len(sc.rows)
		if ts != nil {
			n = ts.Len()
		}
		if err := cc.TickN(n); err != nil {
			d.Stop(0)
			return err
		}
		sc.dst = slices.Grow(sc.dst[:0], n)[:n]
		if ts != nil {
			routed, err := ts.Route(to.keys, to.cols, parts, sc.dst)
			w := ts.Width()
			for t, dst := range sc.dst[:routed] {
				ts.Copy(t, mine[dst].row(w))
			}
			if err != nil {
				d.Stop(routed)
				return err
			}
			continue
		}
		if to.inBatch(sc.rows) {
			sqltypes.PartitionsOf(sc.dst, sc.rows, to.cols, parts)
			for i, r := range sc.rows {
				mine[sc.dst[i]].add(r)
			}
			continue
		}
		for i, r := range sc.rows {
			dst, err := to.route(r, sc.vals, parts)
			if err != nil {
				d.Stop(i)
				return err
			}
			mine[dst].add(r)
		}
	}
}

// deliver lists each destination's rows — source-major, in arrival order
// within a source, so the exchange is deterministic run to run — and
// counts them: all as shuffled and routed, those that changed partitions
// as relocated, the fullest destination's toward RowsToBusiest.
func (s *site) deliver(st *Stats) [][]sqltypes.Row {
	parts, busiest := len(s.out), 0
	for dst := range s.out {
		n := 0
		for src := 0; src < parts; src++ {
			n += len(s.buckets[src*parts+dst].rows)
		}
		rows := slices.Grow(s.out[dst][:0], n)
		for src := 0; src < parts; src++ {
			b := s.buckets[src*parts+dst].rows
			rows = append(rows, b...)
			if src != dst {
				st.RowsRelocated += int64(len(b))
			}
		}
		s.out[dst] = rows
		st.RowsShuffled += int64(len(rows))
		st.RowsRouted += int64(len(rows))
		busiest = max(busiest, len(rows))
	}
	st.RowsToBusiest += int64(busiest)
	return s.out
}

// release marks free the sites of the cuts f's trees only borrowed, once
// f's region has returned without an error: a reader is done with a row
// before it asks for the next (exec's ownership contract), so nothing
// refers to those rows any more, and overwriting them in the next
// evaluation is sound for every operator that is sound on borrowed rows.
// A cut some tree kept, or a failed region read, stays as it is for good.
//
// While sqltypes.Poison is armed, a site is poisoned the moment it is
// marked free: every cell of its buckets becomes sqltypes.Poisoned, so a
// reader that still holds one of its rows reads a wrong value at once.
func (m *Machine) release(f *fragment) {
	for n, s := range f.sites {
		if f.Lent(n) || m.test.lentAll {
			s.free = true
			if sqltypes.Poisoning() {
				s.poison()
			}
			if m.test.freed != nil {
				m.test.freed(s)
			}
		}
	}
}

// poison overwrites every cell of s's buckets with sqltypes.Poisoned.
func (s *site) poison() {
	for _, b := range s.buckets {
		for _, c := range b.chunks {
			for i := range c {
				c[i] = sqltypes.Poisoned
			}
		}
	}
}

// Sweep drops the sites no exchange filled since the previous Sweep,
// except those filled before the first: the loop operator calls it at
// the back-edge, beside the run memo's, so a site only an iteration that
// is over filled does not hold its buffers while the loop runs on. The
// machine's first Sweep drops the sites it was handed (Resume) and did
// not fill, and keeps until the run ends the ones the steps in front of
// the loop and its first iteration filled: the statement's next run
// fills them again (HandBack). A memo of the machine's own (New) is
// swept with them, as the run memo is: an index no evaluation asked for
// since the last sweep — of a table an iteration replaced — goes.
func (m *Machine) Sweep() {
	if m == nil {
		return
	}
	if own, ok := m.RT.(ownMemo); ok {
		own.memo.Sweep()
	}
	first := !m.swept && !m.test.agePreLoop
	m.swept = true
	for k, s := range m.sites {
		switch {
		case m.test.sweepNothing, s.preLoop:
		case !s.filled:
			delete(m.sites, k)
		case first:
			s.preLoop = true
		}
		s.filled = false
	}
}
