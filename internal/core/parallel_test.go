package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/nfs"
	"dmetabench/internal/par"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// smokeRunner builds the 4-combo, 3-op NFS experiment of
// TestRunnerNFSSmoke on its own kernel seeded 42.
func smokeRunner() *Runner {
	k := sim.New(42)
	return &Runner{
		Cluster:      cluster.New(k, cluster.DefaultConfig(2)),
		FS:           nfs.New(k, "home", nfs.DefaultConfig()),
		Params:       Params{ProblemSize: 150, WorkDir: "/bench", Label: "par"},
		SlotsPerNode: 2,
		Plugins:      []Plugin{MakeFiles{}, StatFiles{}, DeleteFiles{}},
	}
}

// runSmokeCells runs the smoke experiment the way the experiments
// package fans out its cells: every (combo, plugin) measurement is one
// Runner on its own kernel, cluster and file system, the cells run
// across the par worker pool, and the measurements come back in plan
// order (combo-major, plugins inner).
func runSmokeCells(t *testing.T) []*results.Measurement {
	t.Helper()
	plan, err := smokeRunner().plan()
	if err != nil {
		t.Fatal(err)
	}
	plugins := smokeRunner().Plugins
	out := make([]*results.Measurement, len(plan)*len(plugins))
	errs := make([]error, len(out))
	par.Do(len(out), func(i int) {
		combo, plugin := plan[i/len(plugins)], plugins[i%len(plugins)]
		r := smokeRunner()
		r.Plugins = []Plugin{plugin}
		r.Filter = func(c Combo) bool { return c.Nodes == combo.Nodes && c.PPN == combo.PPN }
		set, err := r.Run()
		switch {
		case err != nil:
			errs[i] = err
		case len(set.Measurements) != 1:
			errs[i] = fmt.Errorf("cell %d: %d measurements, want 1", i, len(set.Measurements))
		default:
			out[i] = set.Measurements[0]
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// dumpMeasurements serializes every measurement — identity, full
// per-proc traces and derived averages — so two runs can be compared
// byte for byte.
func dumpMeasurements(t *testing.T, ms []*results.Measurement) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range ms {
		fmt.Fprintf(&buf, "== %s n%d p%d ops=%d stone=%.6f wall=%.6f\n",
			m.Op, m.Nodes, m.PPN, m.TotalOps(),
			m.Averages().Stonewall, m.Averages().WallClock)
		if err := m.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := par.Workers()
	par.SetWorkers(n)
	defer par.SetWorkers(old)
	fn()
}

// TestParallelRunnerDeterministicAcrossWorkers is the determinism
// contract for Runner cells: the measurements are byte-identical
// whether the cells run serially on one worker or fan out across every
// CPU.
func TestParallelRunnerDeterministicAcrossWorkers(t *testing.T) {
	var serial, parallel []byte
	withWorkers(t, 1, func() {
		serial = dumpMeasurements(t, runSmokeCells(t))
	})
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4 // force real interleaving even on small hosts
	}
	withWorkers(t, workers, func() {
		parallel = dumpMeasurements(t, runSmokeCells(t))
	})
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("measurements differ between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			workers, serial, parallel)
	}
}

// TestParallelRunnerConcurrentCells drives many Runner cells through a
// wide pool at once; under `go test -race` this is the check that
// Runners on distinct kernels share no mutable state.
func TestParallelRunnerConcurrentCells(t *testing.T) {
	withWorkers(t, 8, func() {
		ms := runSmokeCells(t)
		if len(ms) != 12 {
			t.Fatalf("measurements = %d, want 12", len(ms))
		}
		ops := []string{"MakeFiles", "StatFiles", "DeleteFiles"}
		for i, m := range ms {
			if m.Op != ops[i%3] {
				t.Fatalf("measurement %d is %s, want %s (plan order broken)",
					i, m.Op, ops[i%3])
			}
			if m.Failed() {
				t.Fatalf("measurement %s %d/%d failed: %v", m.Op, m.Nodes, m.PPN, m.Errors)
			}
			if m.TotalOps() != int64(150*m.Procs()) {
				t.Fatalf("%s %d/%d: total ops = %d, want %d",
					m.Op, m.Nodes, m.PPN, m.TotalOps(), 150*m.Procs())
			}
		}
	})
}
