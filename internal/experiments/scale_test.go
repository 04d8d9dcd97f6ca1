package experiments

import (
	"strings"
	"testing"
	"time"

	"dmetabench/internal/par"
)

// scaleExperiments returns E31–E33 from the registry (so the test runs
// exactly what cmd/experiments dispatches, including declared cells).
func scaleExperiments(t *testing.T) []Experiment {
	t.Helper()
	want := map[string]bool{"E31": true, "E32": true, "E33": true}
	var out []Experiment
	for _, e := range All() {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	if len(out) != len(want) {
		t.Fatalf("found %d of %d scale experiments", len(out), len(want))
	}
	return out
}

// withPeriod compresses the long-horizon experiments for test runs and
// restores the package override afterwards.
func withPeriod(t *testing.T, d time.Duration) {
	t.Helper()
	old := Period
	Period = d
	t.Cleanup(func() { Period = old })
}

// TestScaleReportsByteIdenticalAcrossWorkers is the E31–E33 leg of the
// suite determinism contract: the rendered reports of the long-horizon
// experiments — interval series, shed fractions, capacity censuses —
// are byte-identical at any par worker count.
func TestScaleReportsByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon experiments; skipped in -short")
	}
	withPeriod(t, 5*time.Minute)
	es := scaleExperiments(t)
	old := par.Workers()
	defer par.SetWorkers(old)

	par.SetWorkers(1)
	serial := renderAll(es)
	par.SetWorkers(8)
	parallel := renderAll(es)

	if serial != parallel {
		t.Fatalf("scale reports differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			serial, parallel)
	}
}

// TestScaleReportsByteIdenticalUnderDomains repeats the worker-count
// byte-diff with every sharded simulation partitioned into five kernel
// domains: the aggregate injection lanes then run concurrently with the
// foreground probes across real goroutines, and the reports must still
// not depend on the worker count.
func TestScaleReportsByteIdenticalUnderDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon experiments; skipped in -short")
	}
	withPeriod(t, 2*time.Minute)
	oldDomains := Domains
	Domains = 5
	defer func() { Domains = oldDomains }()
	es := scaleExperiments(t)
	old := par.Workers()
	defer par.SetWorkers(old)

	par.SetWorkers(1)
	serial := renderAll(es)
	par.SetWorkers(8)
	parallel := renderAll(es)

	if serial != parallel {
		t.Fatalf("scale reports differ between -j 1 and -j 8 at Domains=5:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			serial, parallel)
	}
}

// TestScaleDeclaredCellCounts pins E31–E33's Cells declarations the way
// TestDeclaredCellCounts does for the cheap cross-section.
func TestScaleDeclaredCellCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon experiments; skipped in -short")
	}
	withPeriod(t, 2*time.Minute)
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(4)

	for _, e := range scaleExperiments(t) {
		par.DrainTimings()
		e.Run()
		got := 0
		for _, tm := range par.DrainTimings() {
			if strings.HasPrefix(tm.Label, e.ID+"/") {
				got++
			}
		}
		if got != e.Cells {
			t.Errorf("%s: dispatched %d cells, declares Cells=%d", e.ID, got, e.Cells)
		}
	}
}

// TestScaleSmoke is the scaled-down long-horizon smoke: every scale
// experiment must produce rows and a non-degenerate background at a
// compressed horizon (the CI job runs the full E31 via cmd/experiments
// -period 10m; this keeps `go test` coverage without the binary).
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon experiments; skipped in -short")
	}
	withPeriod(t, 2*time.Minute)
	for _, e := range scaleExperiments(t) {
		rep := e.Run()
		if rep.Err != nil {
			t.Fatalf("%s: %v", e.ID, rep.Err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s: no rows: %s", e.ID, rep.String())
		}
	}
}
