package effects

import (
	"strings"
	"testing"
)

func TestConflictsBernstein(t *testing.T) {
	cases := []struct {
		name string
		a, b Set
		want bool
	}{
		{"disjoint writes", Set{Writes: []string{"a"}}, Set{Writes: []string{"b"}}, false},
		{"write-write", Set{Writes: []string{"a"}}, Set{Writes: []string{"A"}}, true},
		{"write-read", Set{Writes: []string{"a"}}, Set{Reads: []string{"a"}}, true},
		{"read-write", Set{Reads: []string{"a"}}, Set{Writes: []string{"a"}}, true},
		{"read-read", Set{Reads: []string{"a"}}, Set{Reads: []string{"a"}}, false},
		{"free acts as write vs read", Set{Frees: []string{"a"}}, Set{Reads: []string{"a"}}, true},
		{"read vs free", Set{Reads: []string{"a"}}, Set{Frees: []string{"a"}}, true},
		{"free-free", Set{Frees: []string{"a"}}, Set{Frees: []string{"a"}}, true},
		{"loop write vs loop read", Set{LoopWrites: []string{"loop#1"}}, Set{LoopReads: []string{"loop#1"}}, true},
		{"loop read vs loop write", Set{LoopReads: []string{"loop#1"}}, Set{LoopWrites: []string{"loop#1"}}, true},
		{"loop reads only", Set{LoopReads: []string{"loop#1"}}, Set{LoopReads: []string{"loop#1"}}, false},
		{"different loops", Set{LoopWrites: []string{"loop#1"}}, Set{LoopWrites: []string{"loop#2"}}, false},
		{"case-insensitive slots", Set{Writes: []string{"Intermediate#PR"}}, Set{Reads: []string{"intermediate#pr"}}, true},
	}
	for _, c := range cases {
		if got := Conflicts(c.a, c.b); got != c.want {
			t.Errorf("%s: Conflicts=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestBarrier(t *testing.T) {
	if (Set{Writes: []string{"a"}}).Barrier() {
		t.Error("plain write set must not be a barrier")
	}
	if !(Set{Control: true}).Barrier() || (Set{Control: true}).BarrierReason() != "loop control" {
		t.Error("control step must be a loop-control barrier")
	}
	if !(Set{ObservesStats: true}).Barrier() || (Set{ObservesStats: true}).BarrierReason() != "observes stats" {
		t.Error("stats-observing step must be a stats barrier")
	}
}

// Program shape: two independent materializations, a control step,
// then a dependent chain — mirroring a pre-loop region (CTE seed plus
// a Common#k block), the loop init, and a loop body.
func testSets() []Set {
	return []Set{
		{Writes: []string{"cte"}},                                                     // 0
		{Writes: []string{"Common#1"}},                                                // 1
		{Control: true, LoopWrites: []string{"loop#1"}},                               // 2
		{Reads: []string{"cte", "Common#1"}, Writes: []string{"work"}},                // 3
		{Reads: []string{"cte", "work"}, Writes: []string{"merge"}},                   // 4
		{Reads: []string{"merge"}, Writes: []string{"cte"}, Frees: []string{"merge"}}, // 5
		{Control: true, LoopReads: []string{"loop#1"}},                                // 6
	}
}

func TestBuildRegions(t *testing.T) {
	sched := Build(testSets(), []int{3})
	if !sched.Covers(7) {
		t.Fatalf("schedule does not cover the program: %+v", sched.Regions)
	}
	if len(sched.Regions) != 4 {
		t.Fatalf("got %d regions, want 4: %+v", len(sched.Regions), sched.Regions)
	}
	r0 := sched.Regions[0]
	if r0.Start != 0 || r0.N != 2 || r0.Barrier {
		t.Errorf("region 0 should be the non-barrier pair [0,2): %+v", r0)
	}
	if r0.Width != 2 || r0.CritPath != 1 {
		t.Errorf("independent pair should have width 2, critical path 1: %+v", r0)
	}
	if !sched.Regions[1].Barrier || sched.Regions[1].Start != 2 {
		t.Errorf("region 1 should be the control barrier at step 2: %+v", sched.Regions[1])
	}
	r2 := sched.Regions[2]
	if r2.Start != 3 || r2.N != 3 || r2.Width != 1 || r2.CritPath != 3 {
		t.Errorf("loop body should be a sequential chain [3,6): %+v", r2)
	}
	if !r2.Ordered(0, 2) {
		t.Error("chain must order step 3 before step 5")
	}
	if r2.Ordered(2, 0) {
		t.Error("edges must only point forward")
	}
	if sched.MaxWidth() != 2 {
		t.Errorf("MaxWidth=%d, want 2", sched.MaxWidth())
	}
	if sched.CritPathSteps() != 6 {
		t.Errorf("CritPathSteps=%d, want 6 (1+1+3+1)", sched.CritPathSteps())
	}
}

func TestJumpTargetSplitsRegion(t *testing.T) {
	sets := []Set{
		{Writes: []string{"a"}},
		{Writes: []string{"b"}},
		{Writes: []string{"c"}},
	}
	// Without the jump target the three independent steps form one
	// width-3 region; a jump landing on step 1 must split it so the
	// program counter re-enters at a region boundary.
	if n := len(Build(sets, nil).Regions); n != 1 {
		t.Fatalf("without targets: %d regions, want 1", n)
	}
	sched := Build(sets, []int{1})
	if len(sched.Regions) != 2 || sched.Regions[1].Start != 1 || sched.Regions[1].N != 2 {
		t.Fatalf("jump target did not split the region: %+v", sched.Regions)
	}
	if sched.RegionAt(1) == nil || sched.RegionAt(2) != nil {
		t.Error("RegionAt must find exactly the region starts")
	}
}

func TestStringRendering(t *testing.T) {
	s := Set{
		Reads:      []string{"PageRank", "pagerank", "Common#1"},
		Writes:     []string{"Intermediate#PageRank"},
		LoopWrites: []string{"loop#1"},
	}
	out := s.String()
	if out != "reads {Common#1, PageRank}; writes {Intermediate#PageRank}; loop-writes {loop#1}" {
		t.Errorf("unexpected rendering: %q", out)
	}
	if (Set{}).String() != "none" {
		t.Errorf("empty set renders as %q, want none", (Set{}).String())
	}
	if !strings.Contains((Set{Control: true}).String(), "control") {
		t.Error("control must be rendered")
	}
}

func TestCoversRejectsGapsAndOverlaps(t *testing.T) {
	ok := Build(testSets(), []int{3})
	if !ok.Covers(7) {
		t.Fatal("well-formed schedule must cover")
	}
	gap := &Schedule{Regions: []Region{{Start: 0, N: 2}, {Start: 3, N: 4}}}
	if gap.Covers(7) {
		t.Error("gap must fail Covers")
	}
	overlap := &Schedule{Regions: []Region{{Start: 0, N: 4}, {Start: 3, N: 4}}}
	if overlap.Covers(7) {
		t.Error("overlap must fail Covers")
	}
	short := &Schedule{Regions: []Region{{Start: 0, N: 4}}}
	if short.Covers(7) {
		t.Error("short cover must fail Covers")
	}
}
