package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Op; Parent is the
// ID of the span that caused this one, 0 for the op's root.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is filled in when the file is written: the span's duration
	// minus the part of it its children cover.
	SelfNS int64 `json:"self_ns"`
}

// maxTraceOps bounds the span file: only the first ops keep their spans.
// Every op still adds to the per-name totals the metrics are taken from.
const maxTraceOps = 100

// tracer keeps spans in memory and, per span name, the time each op
// spent under that name.
type tracer struct {
	origin time.Time
	spans  []span
	op     int
	// perOp[name] has one entry per finished op: the summed duration of
	// the op's spans of that name, in nanoseconds.
	perOp map[string][]float64
	cur   map[string]int64
	// kept is the length of spans to fall back to when an op beyond
	// maxTraceOps starts: its spans are recorded, counted and dropped.
	kept int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), perOp: map[string][]float64{}, cur: map[string]int64{}}
}

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// beginOp opens the root span of the next op.
func (t *tracer) beginOp(name string) int {
	t.op++
	if t.op > maxTraceOps {
		t.spans = t.spans[:t.kept]
	}
	return t.begin(name, "engine", 0)
}

// endOp closes the root span and files the op's per-name totals.
func (t *tracer) endOp(root int) {
	t.end(root)
	for name, ns := range t.cur {
		s := t.perOp[name]
		for len(s) < t.op-1 {
			s = append(s, 0) // earlier ops had no span of this name
		}
		t.perOp[name] = append(s, float64(ns))
		delete(t.cur, name)
	}
	if t.op <= maxTraceOps {
		t.kept = len(t.spans)
	}
}

func (t *tracer) begin(name, layer string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Op: t.op, Parent: parent, StartNS: t.now()})
	return id
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.EndNS = t.now()
	t.cur[s.Name] += s.EndNS - s.StartNS
}

// add records a span whose times come from the engine's own trace
// record, not from a clock read here.
func (t *tracer) add(name, layer string, parent int, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Layer: layer, Op: t.op, Parent: parent, StartNS: start, EndNS: end})
	t.cur[name] += end - start
}

// medianOf is the median over ops of the time spent under the names, in
// nanoseconds. An op without such a span counts as zero.
func (t *tracer) medianOf(names ...string) float64 {
	sums := make([]float64, t.op)
	for _, name := range names {
		for i, ns := range t.perOp[name] {
			sums[i] += ns
		}
	}
	return median(sums)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its direct children cover. Overlapping children are
// counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			from, to := k.StartNS, k.EndNS
			if from < reach {
				from = reach
			}
			if to > s.EndNS {
				to = s.EndNS
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// write stores the kept spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	spans := t.spans[:t.kept]
	self := selfTimes(spans)
	for i := range spans {
		spans[i].SelfNS = self[spans[i].ID]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Ops      int    `json:"ops"`
		Spans    []span `json:"spans"`
	}{workload, min(t.op, maxTraceOps), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
