package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at smoke size, traced, which also runs it
// untraced and compares the two: every correctness check of every workload
// runs, and the traced run must report every per-layer metric.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := run(name, 3, 0.4, true, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
		})
	}
}

// TestSmokeUntraced checks the untraced result line: exactly the
// end-to-end metrics, each non-zero.
func TestSmokeUntraced(t *testing.T) {
	res, err := run("ingest", 4, 0.3, false, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("correct=%v metrics=%v", res.Correct, res.Metrics)
	}
	for _, m := range endToEnd {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
}

// TestUnknownWorkload checks that a bad name is an error, not a result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run("nope", 1, 1, false, t.TempDir(), true); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the metrics this
// program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s, program %s", i, m.Name, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if p := perLayer[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, p)
		}
	}
}
