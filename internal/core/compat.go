package core

// DeltaMaterializeStep and MaintainAggStep are kept only because the
// benchmark module's step timing (benchmark/traced.go, stepBucket) names
// them in a type switch. The rewrite never installs either: every loop
// body evaluates Ri with a plain MaterializeStep. Each embeds one, so it
// runs, explains and visits as a MaterializeStep. Delete both with the
// benchmark change that stops naming them (ROADMAP item 7).

// DeltaMaterializeStep is a MaterializeStep under another name.
type DeltaMaterializeStep struct{ MaterializeStep }

// MaintainAggStep is a MaterializeStep under another name.
type MaintainAggStep struct{ MaterializeStep }
