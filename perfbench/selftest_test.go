package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The benchmark's self-test, run from this directory with `go test`:
// the shortest run of every workload, untraced and traced, emits
// exactly the metrics BENCHMARK.json names, each finite and in its
// declared unit, and a perturbed golden is caught.

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	g, err := os.ReadFile("../testdata/paperfigs_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShortestRunEmitsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	golden := readGolden(t)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, dw := range d.Workloads {
		name := dw.Name
		if _, ok := workloads[name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			_, res := runWorkload(name, 1, time.Second, golden, traced)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d",
					name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, declared %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestPerturbedGoldenFails is the negative control: suite-quick
// against a golden with one digit changed reports check failures.
func TestPerturbedGoldenFails(t *testing.T) {
	golden := append([]byte(nil), readGolden(t)...)
	for i, c := range golden {
		if c >= '0' && c <= '8' {
			golden[i]++
			break
		}
	}
	_, res := runWorkload("suite-quick", 1, time.Second, golden, true)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed golden passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if f := res.Metrics["check_fail_frac"].Value; !(f > 0) {
		t.Errorf("check_fail_frac = %v with a perturbed golden, want > 0", f)
	}
}
