package main

import (
	"encoding/json"
	"os"
	"testing"
)

// manifest is BENCHMARK.json, the declaration the acceptance driver
// reads.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestQuickRunMatchesManifest makes a smoke run of every workload, both
// passes, in this process, and fails if what it prints and what
// BENCHMARK.json declares have drifted apart in either direction.
func TestQuickRunMatchesManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}

	if len(mf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}
	for _, d := range mf.Workloads {
		if w := workloadByName(d.Name); w == nil {
			t.Errorf("BENCHMARK.json declares workload %q, the benchmark has none", d.Name)
		} else if w.why != d.Why {
			t.Errorf("workload %q: BENCHMARK.json says %q, the benchmark says %q", d.Name, d.Why, w.why)
		}
	}
	if len(mf.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the benchmark has %d", len(mf.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range mf.EndToEnd {
		if i < len(endToEndMetrics) {
			if def := endToEndMetrics[i]; d.Name != def.name || d.Unit != def.unit || d.Bound != def.bound || d.Better != "lower" {
				t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark has %+v, lower is better", i, d, def)
			}
		}
	}

	rep, err := runAll(options{workloads: workloads, seed: 42, seconds: 0.05, runs: 1, quick: true}, runOne)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range rep.Workloads {
		if wr.Failed != 0 {
			t.Errorf("%s: %d failed ops", wr.Name, wr.Failed)
		}
		for _, def := range endToEndMetrics {
			if s, ok := wr.EndToEnd[def.name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must be printed and never 0", wr.Name, def.name, s.Median)
			}
		}
		declared := map[string]bool{}
		for _, d := range mf.PerLayer {
			declared[d.Name] = true
			if m, ok := wr.PerLayer[d.Name]; !ok {
				t.Errorf("%s: BENCHMARK.json declares per-layer metric %s, the traced pass did not print it", wr.Name, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s is printed in %s, BENCHMARK.json says %s", wr.Name, d.Name, m.Unit, d.Unit)
			}
		}
		for name := range wr.PerLayer {
			if !declared[name] {
				t.Errorf("%s: the traced pass printed %s, which BENCHMARK.json does not declare", wr.Name, name)
			}
		}
	}
}
