package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dmetabench/internal/experiments"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		domains int
		period  time.Duration
		ok      bool
	}{
		{"defaults", 4, 0, 0, true},
		{"serial domained smoke", 1, 3, 10 * time.Minute, true},
		{"zero workers", 0, 0, 0, false},
		{"negative workers", -3, 0, 0, false},
		{"negative domains", 2, -1, 0, false},
		{"negative period", 2, 0, -5 * time.Minute, false},
	} {
		err := checkFlags(tc.workers, tc.domains, tc.period)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%d, %d, %v) = %v, want ok=%v",
				tc.name, tc.workers, tc.domains, tc.period, err, tc.ok)
		}
	}
}

func TestReportFailures(t *testing.T) {
	ok := &experiments.Report{ID: "E01"}
	bad := &experiments.Report{ID: "E12", Err: errors.New("E12/rtt0.2ms-wb-create: boom")}
	for _, tc := range []struct {
		name   string
		reps   []*experiments.Report
		status int
		out    string
	}{
		{"none", nil, 0, ""},
		{"all ok", []*experiments.Report{ok, ok}, 0, ""},
		{"one failed", []*experiments.Report{ok, bad},
			1, "experiments: E12 failed: E12/rtt0.2ms-wb-create: boom\n"},
	} {
		var b strings.Builder
		if got := reportFailures(&b, tc.reps); got != tc.status || b.String() != tc.out {
			t.Errorf("%s: status %d, output %q; want %d, %q",
				tc.name, got, b.String(), tc.status, tc.out)
		}
	}
}

func TestBenchID(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   string
		ok   bool
	}{
		{"BenchmarkExperiment/E07", "E07", true},
		{"BenchmarkExperiment/A02", "A02", true},
		{"BenchmarkE19Failover", "E19", true},
		{"BenchmarkA01AveragingMethods", "A01", true},
		{"BenchmarkExperiment", "", false},
		{"BenchmarkSimulatedCreate", "", false},
		{"BenchmarkAblationInterval", "", false},
		{"SimulatedCreate", "", false},
	} {
		id, ok := benchID(tc.name)
		if id != tc.id || ok != tc.ok {
			t.Errorf("benchID(%q) = %q, %v; want %q, %v", tc.name, id, ok, tc.id, tc.ok)
		}
	}
}
