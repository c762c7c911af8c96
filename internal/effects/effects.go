// Package effects is the static effect-set analysis over step
// programs: for every step of a rewritten plan it models which
// result-store slots the step reads, writes and frees, and which
// loop-control states it touches. internal/core builds each loop
// back-edge's checkpoint specification from the sets and EXPLAIN prints
// them; internal/verify re-derives them independently.
//
// The package is pure: it knows nothing about concrete step types.
// internal/core derives a Set per step through its step registry, and
// internal/verify re-derives them through its own dispatch, so the
// producer and the checker of an effect set fail independently.
package effects

import (
	"sort"
	"strings"
)

// Set is the effect set of one step. Slot names are result-store
// names in display case; all comparisons are case-insensitive, matching
// SQL identifier semantics. Loop slots name loop-operator states
// ("loop#1", "loop#2", ... in program order).
type Set struct {
	// Reads, Writes and Frees are the result-store slots the step
	// consumes, (re)binds and releases.
	Reads  []string
	Writes []string
	Frees  []string
	// LoopReads and LoopWrites are the loop-control states the step
	// observes and mutates (update counters, changed-key sets, delta
	// snapshots).
	LoopReads  []string
	LoopWrites []string
}

// norm lowercases a slot name for comparison.
func norm(name string) string { return strings.ToLower(name) }

// names renders a slot group as "{a, b}", sorted case-insensitively and
// deduplicated, keeping the first spelling seen.
func names(group []string) string {
	seen := map[string]string{}
	var keys []string
	for _, n := range group {
		k := norm(n)
		if _, ok := seen[k]; !ok {
			seen[k] = n
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(seen[k])
	}
	b.WriteByte('}')
	return b.String()
}

// String renders the set for EXPLAIN, e.g.
//
//	reads {PageRank}; writes {Merge#PageRank}; loop-writes {loop#1}
//
// An empty set renders as "none".
func (s Set) String() string {
	var parts []string
	if len(s.Reads) > 0 {
		parts = append(parts, "reads "+names(s.Reads))
	}
	if len(s.Writes) > 0 {
		parts = append(parts, "writes "+names(s.Writes))
	}
	if len(s.Frees) > 0 {
		parts = append(parts, "frees "+names(s.Frees))
	}
	if len(s.LoopReads) > 0 {
		parts = append(parts, "loop-reads "+names(s.LoopReads))
	}
	if len(s.LoopWrites) > 0 {
		parts = append(parts, "loop-writes "+names(s.LoopWrites))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "; ")
}
