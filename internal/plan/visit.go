package plan

// NodeCases has one method per plan node kind, so an analysis that
// implements it handles every kind: a kind added without a case fails
// to compile in each implementation. Visit calls the one for a node's
// kind.
type NodeCases[R any] interface {
	Scan(*Scan) R
	NamedResult(*NamedResult) R
	OneRow(*OneRow) R
	Filter(*Filter) R
	Project(*Project) R
	Alias(*Alias) R
	Join(*Join) R
	Aggregate(*Aggregate) R
	Union(*Union) R
	Distinct(*Distinct) R
	Sort(*Sort) R
	Limit(*Limit) R
	TopN(*TopN) R
	Trim(*Trim) R
	Values(*ValuesNode) R
	Empty(*EmptyNode) R
}

// Visit returns the case of c for n's kind.
func Visit[R any](n Node, c NodeCases[R]) R {
	v := &nodeVisit[R]{c: c}
	n.accept(v)
	return v.r
}

// nodeVisitor is NodeCases without the result type, which a method of
// Node cannot have; nodeVisit adapts one to the other.
type nodeVisitor interface {
	scan(*Scan)
	namedResult(*NamedResult)
	oneRow(*OneRow)
	filter(*Filter)
	project(*Project)
	alias(*Alias)
	join(*Join)
	aggregate(*Aggregate)
	union(*Union)
	distinct(*Distinct)
	sort(*Sort)
	limit(*Limit)
	topN(*TopN)
	trim(*Trim)
	values(*ValuesNode)
	empty(*EmptyNode)
}

type nodeVisit[R any] struct {
	c NodeCases[R]
	r R
}

func (v *nodeVisit[R]) scan(n *Scan)               { v.r = v.c.Scan(n) }
func (v *nodeVisit[R]) namedResult(n *NamedResult) { v.r = v.c.NamedResult(n) }
func (v *nodeVisit[R]) oneRow(n *OneRow)           { v.r = v.c.OneRow(n) }
func (v *nodeVisit[R]) filter(n *Filter)           { v.r = v.c.Filter(n) }
func (v *nodeVisit[R]) project(n *Project)         { v.r = v.c.Project(n) }
func (v *nodeVisit[R]) alias(n *Alias)             { v.r = v.c.Alias(n) }
func (v *nodeVisit[R]) join(n *Join)               { v.r = v.c.Join(n) }
func (v *nodeVisit[R]) aggregate(n *Aggregate)     { v.r = v.c.Aggregate(n) }
func (v *nodeVisit[R]) union(n *Union)             { v.r = v.c.Union(n) }
func (v *nodeVisit[R]) distinct(n *Distinct)       { v.r = v.c.Distinct(n) }
func (v *nodeVisit[R]) sort(n *Sort)               { v.r = v.c.Sort(n) }
func (v *nodeVisit[R]) limit(n *Limit)             { v.r = v.c.Limit(n) }
func (v *nodeVisit[R]) topN(n *TopN)               { v.r = v.c.TopN(n) }
func (v *nodeVisit[R]) trim(n *Trim)               { v.r = v.c.Trim(n) }
func (v *nodeVisit[R]) values(n *ValuesNode)       { v.r = v.c.Values(n) }
func (v *nodeVisit[R]) empty(n *EmptyNode)         { v.r = v.c.Empty(n) }

func (n *Scan) accept(v nodeVisitor)        { v.scan(n) }
func (n *NamedResult) accept(v nodeVisitor) { v.namedResult(n) }
func (n *OneRow) accept(v nodeVisitor)      { v.oneRow(n) }
func (n *Filter) accept(v nodeVisitor)      { v.filter(n) }
func (n *Project) accept(v nodeVisitor)     { v.project(n) }
func (n *Alias) accept(v nodeVisitor)       { v.alias(n) }
func (n *Join) accept(v nodeVisitor)        { v.join(n) }
func (n *Aggregate) accept(v nodeVisitor)   { v.aggregate(n) }
func (n *Union) accept(v nodeVisitor)       { v.union(n) }
func (n *Distinct) accept(v nodeVisitor)    { v.distinct(n) }
func (n *Sort) accept(v nodeVisitor)        { v.sort(n) }
func (n *Limit) accept(v nodeVisitor)       { v.limit(n) }
func (n *TopN) accept(v nodeVisitor)        { v.topN(n) }
func (n *Trim) accept(v nodeVisitor)        { v.trim(n) }
func (n *ValuesNode) accept(v nodeVisitor)  { v.values(n) }
func (n *EmptyNode) accept(v nodeVisitor)   { v.empty(n) }
