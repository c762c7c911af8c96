package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestForwardFixpoint runs the driver on hand-built programs over a toy
// lattice: a state is the set of slots (bits) whose property holds, the
// meet is intersection, and each step sets the bits in gen after
// clearing those in kill. A property reaches a loop head only if it
// holds on the way in and again at the back-edge.
func TestForwardFixpoint(t *testing.T) {
	const x, y = 1, 2
	type effect struct{ gen, kill uint }
	plain := func() Step { return &MaterializeStep{} }
	loop := func(bodyStart int) Step { return &LoopStep{BodyStart: bodyStart} }
	for _, c := range []struct {
		name    string
		steps   []Step
		effects []effect
		want    []uint // entry state of each step, then the exit state
	}{
		{
			name:    "straight line",
			steps:   []Step{plain(), plain(), plain()},
			effects: []effect{{gen: x}, {gen: y}, {kill: x}},
			want:    []uint{0, x, x | y, y},
		},
		{
			name:    "body re-establishes x",
			steps:   []Step{plain(), &InitLoopStep{}, plain(), plain(), loop(2)},
			effects: []effect{{gen: x}, {}, {kill: x}, {gen: x}, {}},
			want:    []uint{0, x, x, 0, x, x},
		},
		{
			name:    "body destroys x",
			steps:   []Step{plain(), &InitLoopStep{}, plain(), plain(), loop(2)},
			effects: []effect{{gen: x}, {}, {}, {kill: x}, {}},
			want:    []uint{0, x, 0, 0, 0, 0},
		},
		{
			name: "two loops in sequence",
			steps: []Step{plain(), &InitLoopStep{}, plain(), plain(), loop(2),
				&InitLoopStep{}, plain(), plain(), loop(6)},
			effects: []effect{{gen: x}, {}, {gen: y}, {kill: x}, {},
				{}, {gen: x}, {kill: y}, {}},
			want: []uint{0, x, 0, y, y, y, 0, x, x, x},
		},
		{
			name: "zero steps",
			want: []uint{x | y},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := uint(0)
			if len(c.steps) == 0 {
				start = x | y
			}
			var visits []int
			got := Forward(c.steps, start, func(i int, in uint) uint {
				visits = append(visits, i)
				return in&^c.effects[i].kill | c.effects[i].gen
			}, func(acc, in uint) (uint, bool) {
				return acc & in, acc&in != acc
			})
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("states %b, want %b (steps visited %v)", got, c.want, visits)
			}
			for i := range c.steps {
				if !slices.Contains(visits, i) {
					t.Errorf("step %d never visited: %v", i, visits)
				}
			}
		})
	}
}
