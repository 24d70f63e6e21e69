package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestTinyRuns runs every workload at tiny sizes, untraced and traced,
// and checks that each metric BENCHMARK.json names is printed, finite
// and in its unit, with every check passing and no op failing.
func TestTinyRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 3", len(spec.Workloads))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, meta, err := run(context.Background(), options{
				workload: wl.Name, seed: 7, seconds: 2, trace: traced, sz: tinySizes,
				dataDir: t.TempDir(), traceDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d ops failed", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics printed, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, w := range want {
				m, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", wl.Name, traced, w.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s (traced %v): metric %s = %v", wl.Name, traced, w.Name, m.Value)
				case m.Unit != w.Unit:
					t.Errorf("%s (traced %v): metric %s in %q, want %q", wl.Name, traced, w.Name, m.Unit, w.Unit)
				}
			}
			if _, err := json.Marshal(meta); err != nil {
				t.Errorf("%s: metadata does not encode: %v", wl.Name, err)
			}
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	v := make([]float64, 99)
	for i := range v {
		v[i] = float64(i)
	}
	if _, err := percentile(v, 0.9); err == nil {
		t.Error("p90 of 99 samples accepted with fewer than 10 beyond it")
	}
	if p, err := percentile(append(v, 99), 0.5); err != nil || p != 49.5 {
		t.Errorf("p50 of 0..99 = %v, %v; want 49.5", p, err)
	}
}
