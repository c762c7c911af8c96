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
// gets a new site.
type site struct {
	buckets []bucket         // source-major: [source*parts+destination]
	out     [][]sqltypes.Row // per destination, the buckets' rows
	free    bool
	filled  bool // since the last Sweep
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
		s.carried = true
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

// add copies r into the bucket.
func (b *bucket) add(r sqltypes.Row) {
	w := len(r)
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
	copy(row, r)
	b.rows = append(b.rows, row)
}

// site returns the buffers the exchange k fills: the ones it filled last
// time, rewound, if their reader has let go of them; else new ones.
func (m *Machine) site(k siteKey) *site {
	s := m.sites[k]
	if s == nil || !s.free {
		s = &site{buckets: make([]bucket, m.Parts*m.Parts), out: make([][]sqltypes.Row, m.Parts)}
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

// fill drains op, partition p's tree, into p's buckets: each row is
// copied before the next is asked for, so op may lend its rows.
func (s *site) fill(p int, op exec.Operator, route func(sqltypes.Row) (int, error), cc *exec.CancelChecker) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	mine := s.buckets[p*len(s.out):]
	for {
		r, err := op.Next()
		if err != nil || r == nil {
			return err
		}
		if err := cc.Tick(); err != nil {
			return err
		}
		dst, err := route(r)
		if err != nil {
			return err
		}
		mine[dst].add(r)
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
func (m *Machine) release(f *fragment) {
	for n, s := range f.sites {
		if f.Lent(n) || m.test.lentAll {
			s.free = true
			if m.test.freed != nil {
				m.test.freed(s)
			}
		}
	}
}

// Sweep drops the sites not filled since the previous Sweep. The loop
// operator calls it at the back-edge, beside the run memo's, so the
// exchanges in front of a loop do not hold their buffers while it runs;
// the rest goes with the machine. A memo of the machine's own (New) is
// swept with them, as the run memo is: an index no evaluation asked for
// since the last sweep — of a table an iteration replaced — goes.
func (m *Machine) Sweep() {
	if m == nil {
		return
	}
	if own, ok := m.RT.(ownMemo); ok {
		own.memo.Sweep()
	}
	for k, s := range m.sites {
		if !s.filled {
			delete(m.sites, k)
		}
		s.filled = false
	}
}
