package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/shard"
)

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (e2e, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []benchmarkMetric `json:"end_to_end"`
		PerLayer []benchmarkMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	index := func(ms []benchmarkMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	return index(b.EndToEnd), index(b.PerLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every name a run emits is valid and listed in BENCHMARK.json with the
// same unit, and every listed name is emitted, for both kinds of run.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, perLayer := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(w, defaultSeed, 0, traced, options{size: 4})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: %v", w.name, traced, res.problems)
			}
			want := e2e
			if traced {
				want = perLayer
			}
			for name, m := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: invalid metric name %q", w.name, name)
				}
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: %s [%s] is not in BENCHMARK.json (listed unit %q)",
						w.name, traced, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: listed metric %s not emitted", w.name, traced, name)
				}
			}
		}
	}
}

// The output check passes on both named seeds at the default size:
// completion, namespace consistency and the pinned digests.
func TestNamedSeedsPassOutputCheck(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			r, err := runRep(w, seed, options{}, plain)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.problems) > 0 {
				t.Errorf("%s seed %d: %v", w.name, seed, r.problems)
			}
		}
	}
}

// A model slower by one microsecond per create fails the digest check.
func TestPerturbedConfigFailsDigest(t *testing.T) {
	perturb := func(cfg any) {
		switch c := cfg.(type) {
		case *nfs.Config:
			c.CreateService += time.Microsecond
		case *shard.Config:
			c.CreateService += time.Microsecond
		case *lustre.Config:
			c.CreateService += time.Microsecond
		default:
			t.Fatalf("unexpected config %T", cfg)
		}
	}
	for _, w := range workloads {
		r, err := runRep(w, defaultSeed, options{mutate: perturb}, plain)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.problems) != 1 || !strings.HasPrefix(r.problems[0], "digest ") {
			t.Errorf("%s: perturbed run reported %v, want one digest mismatch", w.name, r.problems)
		}
	}
}

// Tracing (spans, CPU profile, MemProfileRate=1) does not change what
// is simulated: every model counter and the digest match the untraced
// rep, and both traced reps see the same span latencies.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	for _, w := range workloads {
		var reps []*rep
		for _, m := range []mode{plain, cpuProfiled, allocProfiled} {
			r, err := runRep(w, defaultSeed, options{}, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.problems) > 0 {
				t.Errorf("%s mode %d: %v", w.name, m, r.problems)
			}
			reps = append(reps, r)
		}
		for _, r := range reps[1:] {
			if r.model != reps[0].model {
				t.Errorf("%s: traced %+v, untraced %+v", w.name, r.model, reps[0].model)
			}
		}
		if reps[1].lat != reps[2].lat || reps[1].lat.createP50 == 0 || reps[1].lat.statP50 == 0 {
			t.Errorf("%s: traced latencies %+v and %+v", w.name, reps[1].lat, reps[2].lat)
		}
		if n := len(reps[1].rec.spans); int64(n) != reps[1].model.ClientOps {
			t.Errorf("%s: %d spans for %d client ops", w.name, n, reps[1].model.ClientOps)
		}
	}
}
