package main

import (
	"encoding/json"
	"os"
	"testing"

	"embera/internal/cluster"
)

// TestMain lets the test binary serve as a cluster worker shard: the
// cluster workload re-executes the running binary once per shard.
func TestMain(m *testing.M) {
	cluster.MaybeWorkerMain()
	os.Exit(m.Run())
}

// TestEveryWorkloadPrintsEveryMetric runs every workload at a tiny size,
// untraced and traced, and requires a passing result carrying every metric
// of the matching table with its unit.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: heldOutSeed, seconds: 0.2, trace: traced, tiny: true, spansDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			table := metricTable(traced)
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables of the code in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(doc.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(names))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q: unknown or without a why", w.Name)
		}
	}
	for _, c := range []struct {
		kind  string
		json  []metric
		table []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.table) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", c.kind, len(c.json), len(c.table))
		}
		for i, m := range c.table {
			j := c.json[i]
			if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.kind, i, j, m)
			}
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
