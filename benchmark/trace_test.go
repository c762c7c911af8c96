package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Name: "parse", Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Name: "run", Parent: 1, StartNS: 40, EndNS: 90},
		// Two children of run that overlap: covered once, 45..80.
		{ID: 4, Name: "iteration", Parent: 3, StartNS: 45, EndNS: 70},
		{ID: 5, Name: "step", Parent: 3, StartNS: 60, EndNS: 80},
		// A child that runs past its parent only covers the part inside.
		{ID: 6, Name: "late", Parent: 2, StartNS: 25, EndNS: 50},
	}
	want := map[int]int64{1: 100 - 20 - 50, 2: 20 - 5, 3: 50 - 35, 4: 25, 5: 20, 6: 25}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id-1].Name, got[id], w)
		}
	}
}

func TestTracerPerOpTotals(t *testing.T) {
	tr := newTracer()
	for op := 0; op < 3; op++ {
		root := tr.beginOp("op")
		tr.add("core.step.merge", "core", root, 0, 10)
		if op == 2 {
			tr.add("plan.build", "plan", root, 0, 8) // only the last op plans
		}
		tr.add("core.step.merge", "core", root, 10, 30)
		tr.endOp(root)
	}
	if got := tr.medianOf("core.step.merge"); got != 30 {
		t.Errorf("median merge time per op = %v, want 30", got)
	}
	if got := tr.medianOf("plan.build"); got != 0 {
		t.Errorf("median plan time per op = %v, want 0: two of three ops did not plan", got)
	}
	if got := tr.medianOf("core.step.merge", "plan.build"); got != 30 {
		t.Errorf("median of the sum = %v, want 30", got)
	}
}
