package experiments

import (
	"strings"
	"testing"

	"dmetabench/internal/par"
)

// cheapIDs is a fast cross-section of the suite used by the parallel
// tests: plain probe cells (E01), probe pairs (E18), a sweep analyzed
// at report time (E21) and a sweep of measure cells on one seed (E16).
var cheapIDs = map[string]bool{"E01": true, "E18": true, "E21": true, "E16": true}

func cheapExperiments(t *testing.T) []Experiment {
	t.Helper()
	var out []Experiment
	for _, e := range All() {
		if cheapIDs[e.ID] {
			out = append(out, e)
		}
	}
	if len(out) != len(cheapIDs) {
		t.Fatalf("found %d of %d cheap experiments", len(out), len(cheapIDs))
	}
	return out
}

func renderAll(es []Experiment) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(e.Run().String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReportsByteIdenticalAcrossWorkers pins the user-visible contract:
// the rendered report of every experiment — every row, finding and
// chart — is byte-identical whether the suite runs with -j 1 or wide.
func TestReportsByteIdenticalAcrossWorkers(t *testing.T) {
	es := cheapExperiments(t)
	old := par.Workers()
	defer par.SetWorkers(old)

	par.SetWorkers(1)
	serial := renderAll(es)
	par.SetWorkers(8)
	parallel := renderAll(es)

	if serial != parallel {
		t.Fatalf("reports differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			serial, parallel)
	}
}

// TestDeclaredCellCounts checks the registry without running it:
// every experiment declares at least one cell, Cells counts them, and
// the cell names — the -cells labels — are non-empty and unique within
// the experiment. The sweeps once nested inside a cell are flat cells.
func TestDeclaredCellCounts(t *testing.T) {
	want := map[string]int{"E07": 16, "E11": 12, "E13": 17,
		"A01": 1, "E02": 1, "E09": 1, "E10": 1}
	ids := map[string]bool{}
	for _, e := range append(All(), Ablations()...) {
		if ids[e.ID] {
			t.Errorf("%s: registered twice", e.ID)
		}
		ids[e.ID] = true
		if e.Cells < 1 || e.Cells != len(e.names) {
			t.Errorf("%s: Cells = %d for %d declared cells", e.ID, e.Cells, len(e.names))
		}
		if n, ok := want[e.ID]; ok && e.Cells != n {
			t.Errorf("%s: %d cells, want %d", e.ID, e.Cells, n)
		}
		seen := map[string]bool{}
		for _, n := range e.names {
			if n == "" || seen[n] {
				t.Errorf("%s: cell name %q empty or repeated", e.ID, n)
			}
			seen[n] = true
		}
	}
}
