package effects

import "testing"

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
}
