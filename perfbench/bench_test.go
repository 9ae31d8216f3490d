package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// tiny keeps every workload to a fraction of a second. TenantLife is
// small enough that the 0.2 s loops relaunch serve tenants.
var tiny = sizes{Setups: 1, PrefixOps: 12, TenantLife: 16, PrefixWaves: 1, WaveTenants: 6, TenantUnits: 4, MaxSpans: 1000}

func runTiny(t *testing.T, w workloadSpec, seed int64, traced bool) (*result, output) {
	t.Helper()
	res, err := measure(w, options{seed: seed, seconds: 0.2, traced: traced, sizes: tiny})
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.Name, seed, traced, err)
	}
	out, err := render(res, metricsOf(traced))
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.Name, seed, traced, err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("%s seed %d traced=%v: %d of %d ops failed; notes %q", w.Name, seed, traced, out.Failed, out.Attempted, res.notes)
	}
	for name, m := range out.Metrics {
		if m.Unit == "" {
			t.Errorf("%s: metric %s has no unit", w.Name, name)
		}
	}
	return res, out
}

// exact returns the metrics of a table that depend on the seed alone.
func exact(out output, defs []metricDef) map[string]float64 {
	m := map[string]float64{}
	for _, d := range defs {
		if d.Exact {
			m[d.Name] = out.Metrics[d.Name].Value
		}
	}
	return m
}

// TestWorkloadsTiny runs each workload small, untraced and traced: every
// metric is reported with a unit and a finite value, one seed repeats
// every exact metric and the op order, and another seed changes the
// order.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				a, outA := runTiny(t, w, 1, traced)
				b, outB := runTiny(t, w, 1, traced)
				defs := metricsOf(traced)
				if ea, eb := exact(outA, defs), exact(outB, defs); !reflect.DeepEqual(ea, eb) {
					t.Errorf("traced=%v: seed 1 twice gave different exact metrics:\n%v\n%v", traced, ea, eb)
				}
				if !reflect.DeepEqual(a.order, b.order) {
					t.Errorf("traced=%v: seed 1 twice gave different op orders", traced)
				}
				if traced {
					continue
				}
				c, _ := runTiny(t, w, 2, traced)
				if reflect.DeepEqual(a.order, c.order) {
					t.Errorf("seeds 1 and 2 gave the same op order %v", a.order)
				}
			}
		})
	}
}

// TestTablesMatchBenchmarkJSON keeps BENCHMARK.json and the metric and
// workload tables of this package in step.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var want []metric
		for _, d := range tc.defs {
			want = append(want, metric{d.Name, d.Unit, d.Better})
		}
		if !reflect.DeepEqual(tc.json, want) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nmetrics.go:\n%v", tc.kind, tc.json, want)
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var jsonNames []string
	for _, w := range doc.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if !reflect.DeepEqual(names, jsonNames) {
		t.Errorf("workloads: BENCHMARK.json %v, workloads.go %v", jsonNames, names)
	}
}

// TestRunRejectsBadArguments: a bad invocation prints no result line.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--trace", "2"},
		{"--workload", "serve", "--seconds", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q", args, code, stdout.String())
		}
	}
}
