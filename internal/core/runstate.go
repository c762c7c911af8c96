package core

import (
	"dbspinner/internal/exec"
	"dbspinner/internal/mpp"
	"dbspinner/internal/sqltypes"
)

// RunState is what the runs of one statement carry from one to the
// next, as §VI-A's rename re-points storage instead of rebuilding it:
// the storage a clean run let go, and the advisory size hints it left.
//   - The run memo's spare indexes, each aggregate node's group count,
//     spare group tables and accumulators, and the row chunks and
//     partition slices the run's released tables handed back, which the
//     next run's tables are carved from (exec.Leftovers). The statement
//     cache bounds those chunks over every statement it holds
//     (ChunkBytes, DropChunks).
//   - The MPP machine's free exchange sites, by plan node (mpp.Sites).
//   - The step program's size hints (Context.sizeHint) and the key
//     tables its keyed passes let go (Context.keyTable).
//   - The keyed merges' key indexes (keyIndex), emptied by the first
//     merge of the next run, which rebuilds.
//
// Nothing a run computed is in it. The run memo's index entries (witnessed
// by a table's address, and DML changes base tables in place), the
// compiled expressions (bound to the run's literals) and the loop state
// go when the run ends, their storage recycled. A statement takes its
// state at the start of a run and hands it back at the end (Begin,
// Run.End): a run that fails, is cancelled, times out or degrades hands
// back nothing, and a spare the run was handed and did not take is
// dropped, so a state never holds more than one run let go. The zero
// value is empty; a nil *RunState is a fresh state nothing keeps, what a
// statement outside the statement cache runs with. One run at a time
// may use a state.
type RunState struct {
	left   exec.Leftovers
	sites  mpp.Sites
	sizes  []int
	keys   sqltypes.Spares[*sqltypes.KeyTable]
	merges sqltypes.Spares[*keyIndex]
}

// Run is one run of a statement over its RunState. RT is the view of
// the runtime every executor the run starts — the steps, the MPP
// machine, the final query — reaches the run memo through: hash indexes
// and compiled expressions, built for this run over the state's storage,
// and the free list of row chunks its tables are carved from, which
// holds what the last clean run's released tables handed back and, when
// the run ends clean, what this run's did.
type Run struct {
	RT      *exec.StoreRuntime
	state   *RunState
	memo    *exec.Memo
	machine *mpp.Machine
}

// Begin starts a run of the statement st belongs to (nil: a fresh
// state) that bound params to the statement's literal slots (nil: every
// literal keeps the value it was parsed with), counting the cells its
// released tables hand back into freed. It is how every SELECT path
// builds its run memo.
func (st *RunState) Begin(rt *exec.StoreRuntime, params []sqltypes.Value, freed *int64) *Run {
	if st == nil {
		st = new(RunState)
	}
	memo := st.left.Begin(params, freed)
	return &Run{RT: rt.WithMemo(memo), state: st, memo: memo}
}

// Machine returns an MPP machine over parts partitions for the run,
// starting from the exchange sites the statement's last clean run left.
func (r *Run) Machine(parts int, stats *mpp.Stats, execStats *exec.Stats) *mpp.Machine {
	st := r.runState()
	if st.sites == nil {
		st.sites = mpp.Sites{}
	}
	r.machine = mpp.New(r.RT, parts, stats, execStats)
	r.machine.Resume(st.sites)
	return r.machine
}

// End ends the run. After a clean one the state keeps what the run let
// go (and not what it was handed and did not take); after any other, it
// keeps nothing.
func (r *Run) End(clean bool) {
	st := r.runState()
	st.left.End(r.memo, clean)
	if !clean {
		st.sites, st.sizes = nil, nil
		st.keys.Clear()
		st.merges.Clear()
		return
	}
	if r.machine != nil {
		r.machine.HandBack()
	} else {
		st.sites = nil
	}
	st.keys.HandBack()
	st.merges.HandBack()
}

// ChunkBytes returns the bytes of the row chunks and partition slices
// st carries into its statement's next run (0 for a nil state).
func (st *RunState) ChunkBytes() int64 {
	if st == nil {
		return 0
	}
	return st.left.ChunkBytes()
}

// DropChunks drops the row chunks and partition slices st carries; the
// rest of the state stays.
func (st *RunState) DropChunks() { st.left.DropChunks() }

// runState returns the state the run is over, a fresh one for a Run
// built outside Begin (tests that bring their own memo).
func (r *Run) runState() *RunState {
	if r.state == nil {
		r.state = new(RunState)
	}
	return r.state
}

// sizesFor returns the run's size hints for n counters: the state's, when
// its last run kept as many, else zeros the state keeps from now on.
func (st *RunState) sizesFor(n int) []int {
	if len(st.sizes) != n {
		st.sizes = make([]int, n)
	}
	return st.sizes
}
