package exec

import (
	"fmt"

	"dbspinner/internal/catalog"
	"dbspinner/internal/faultinject"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// StoreRuntime is the standard Runtime backed by a catalog of base
// tables and a result store for intermediate results. It also
// implements plan.TableLookup, so the same object drives planning and
// execution.
type StoreRuntime struct {
	Catalog *catalog.Catalog
	Results *storage.ResultStore
	// indexes and compiled are the run memo of the query run this view
	// belongs to (WithMemo): its hash indexes and its compiled
	// expressions. Nil outside one.
	indexes  *IndexCache
	compiled *CompileCache
}

// NewStoreRuntime wraps a catalog and result store.
func NewStoreRuntime(cat *catalog.Catalog, res *storage.ResultStore) *StoreRuntime {
	return &StoreRuntime{Catalog: cat, Results: res}
}

// WithMemo returns a view of the runtime whose executors share a run
// memo: joins take the indexes of the tables they read directly from
// indexes, and every tree takes what it compiles from a plan node from
// compiled. One query run owns both. Either may be nil.
func (s *StoreRuntime) WithMemo(indexes *IndexCache, compiled *CompileCache) *StoreRuntime {
	return &StoreRuntime{Catalog: s.Catalog, Results: s.Results, indexes: indexes, compiled: compiled}
}

// Indexes implements Runtime.
func (s *StoreRuntime) Indexes() *IndexCache { return s.indexes }

// Compiled implements Runtime.
func (s *StoreRuntime) Compiled() *CompileCache { return s.compiled }

// ArmFaults arms (or, with nil, disarms) fault injection on the result
// store's mutation hooks (the "storage" point of Config.FaultSchedule).
// The engine arms it around one statement and disarms it after.
func (s *StoreRuntime) ArmFaults(r *faultinject.Registry) { s.Results.SetFaults(r) }

// LiveResults returns the number of intermediate results currently
// registered — the leak-freedom observable of the fault-tolerance
// tests: after any statement, failed or not, it must be zero.
func (s *StoreRuntime) LiveResults() int { return s.Results.Len() }

// BaseTable implements Runtime.
func (s *StoreRuntime) BaseTable(name string) (*storage.Table, error) {
	if t := s.Catalog.Get(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("table %q does not exist", name)
}

// Result implements Runtime.
func (s *StoreRuntime) Result(name string) (*storage.Table, error) {
	if t := s.Results.Get(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("intermediate result %q does not exist", name)
}

// TableSchema implements plan.TableLookup.
func (s *StoreRuntime) TableSchema(name string) (sqltypes.Schema, bool) {
	if t := s.Catalog.Get(name); t != nil {
		return t.Schema, true
	}
	return nil, false
}

// ResultSchema implements plan.TableLookup.
func (s *StoreRuntime) ResultSchema(name string) (sqltypes.Schema, bool) {
	if t := s.Results.Get(name); t != nil {
		return t.Schema, true
	}
	return nil, false
}

// TableRowCount implements converge.CardinalityLookup: the current row
// count of a base table. The engine does not call it; the benchmark's
// converge.analyze_us probe, its only caller, times converge.AnalyzeCTE
// over this runtime.
func (s *StoreRuntime) TableRowCount(name string) (int, bool) {
	if t := s.Catalog.Get(name); t != nil {
		return t.Len(), true
	}
	return 0, false
}

// TableDistribution implements distprop.TableDist: the storage layout
// of a base table — its hash-distribution column (-1 for round-robin)
// and partition count — so the partition-property analysis can seed
// scan properties from the physical layout.
func (s *StoreRuntime) TableDistribution(name string) (distCol, parts int, ok bool) {
	if t := s.Catalog.Get(name); t != nil {
		return t.DistCol, t.NumParts(), true
	}
	return -1, 0, false
}
