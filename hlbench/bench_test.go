package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testScale shrinks every workload so the suite runs in seconds; the
// output checks run unchanged.
const testScale = 0.05

func runSmall(t *testing.T, name string, seed int64, workers int) *result {
	t.Helper()
	w := workloads[name]
	res, err := measure(w, runCfg{seed: seed, scale: testScale, workers: workers}, 0, false)
	if err != nil {
		t.Fatalf("%s seed %d workers %d: %v", name, seed, workers, err)
	}
	return res
}

// TestOutputChecksAtBothSeeds runs every workload briefly at the default
// and the reserved seed; measure fails if any output check fails.
func TestOutputChecksAtBothSeeds(t *testing.T) {
	for name, w := range workloads {
		for _, seed := range []int64{defaultSeed, confirmSeed} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				res := runSmall(t, name, seed, w.workers)
				if res.attempted == 0 {
					t.Fatal("no ops attempted")
				}
			})
		}
	}
}

// TestDigestDeterministic checks the modeled digest is identical across two
// runs of one seed, and across engine worker counts on the partitioned
// workloads.
func TestDigestDeterministic(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			a := runSmall(t, name, defaultSeed, w.workers)
			b := runSmall(t, name, defaultSeed, w.workers)
			if a.digest != b.digest {
				t.Fatalf("same seed, digests %s and %s", a.digest, b.digest)
			}
			if name != "kv-craq" && name != "serve-open" {
				return
			}
			for _, workers := range []int{1, 2} {
				if c := runSmall(t, name, defaultSeed, workers); c.digest != a.digest {
					t.Fatalf("%d engine workers: digest %s, want %s", workers, c.digest, a.digest)
				}
			}
		})
	}
}

// TestTracedRun runs a traced measurement: every per-layer metric is
// reported, the profile decodes into per-package self time, and on
// serve-open the queue-wait and put spans tile each op exactly.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"gwrite-colo", "serve-open"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			res, err := measure(w, runCfg{seed: defaultSeed, scale: testScale, workers: w.workers}, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if len(res.spans) == 0 {
				t.Error("no spans recorded")
			}
			if name == "serve-open" {
				m := res.metrics
				if q, p, w := m["load.queue_wait_us"], m["shard.put_mean_us"], m["write_mean_us"]; q <= 0 || p <= 0 || q+p < w*(1-1e-12) || q+p > w*(1+1e-12) {
					t.Errorf("queue wait %v + put %v != mean write %v", q, p, w)
				}
			}
		})
	}
}

func TestPkgOf(t *testing.T) {
	for sym, want := range map[string]string{
		"hyperloop/internal/rdma.(*NIC).kick":             "hyperloop/internal/rdma",
		"runtime.mallocgc":                                "runtime",
		"hyperloop/internal/core.(*channel).submit.func1": "hyperloop/internal/core",
		"main.main": "main",
	} {
		if got := pkgOf(sym); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestBenchmarkJSONMatches checks the metric names and units the command
// prints are the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the code", w.Name)
		}
	}
}
