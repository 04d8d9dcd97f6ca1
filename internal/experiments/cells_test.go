package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/localfs"
	"dmetabench/internal/nfs"
	"dmetabench/internal/par"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// TestSpecRun pins the contract of the one experiment runner: every
// declared cell runs and records exactly one "<ID>/<name>" timing, the
// report sees the results in cell order, and a failed run reports the
// lowest-index failing cell's error, named after it, at any worker
// count.
func TestSpecRun(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	names := []string{"a", "b", "c", "d", "e"}
	for _, workers := range []int{1, 8} {
		par.SetWorkers(workers)
		for _, fail := range []bool{false, true} {
			var got []int
			s := spec[int]{id: "EX", report: func(_ *Report, out []int) { got = out }}
			for i, n := range names {
				s.cells = append(s.cells, cell[int]{n, func() (int, error) {
					if fail && (i == 1 || i == 3) {
						return 0, fmt.Errorf("cell %d broke", i)
					}
					return 10 * i, nil
				}})
			}
			par.DrainTimings()
			rep := s.run()
			timed := map[string]int{}
			for _, tm := range par.DrainTimings() {
				timed[tm.Label]++
			}
			for _, n := range names {
				if timed["EX/"+n] != 1 {
					t.Errorf("workers %d fail %v: %d timings for cell %s, want 1",
						workers, fail, timed["EX/"+n], n)
				}
			}
			if len(timed) != len(names) {
				t.Errorf("workers %d fail %v: timings %v, want one per cell", workers, fail, timed)
			}
			switch {
			case fail && (rep.Err == nil || rep.Err.Error() != "EX/b: cell 1 broke"):
				t.Errorf("workers %d: err = %v, want EX/b: cell 1 broke", workers, rep.Err)
			case fail && got != nil:
				t.Errorf("workers %d: a failed run rendered its report", workers)
			case !fail && (rep.Err != nil || fmt.Sprint(got) != "[0 10 20 30 40]"):
				t.Errorf("workers %d: err %v, report saw %v; want cell order", workers, rep.Err, got)
			}
		}
	}
}

// smokeSpec is a small synthetic experiment of measure cells: tiny
// 1-node NFS runs of MakeFiles, StatFiles and DeleteFiles at two seeds
// and two process counts. Every bench phase runs under filer snapshots,
// whose stalls draw from the kernel's RNG, so a cell's result depends
// on its seed. Its report is every cell's serialized result set.
func smokeSpec() spec[*results.Set] {
	var cells []cell[*results.Set]
	for _, seed := range []int64{42, 43} {
		for _, ppn := range []int{1, 2} {
			m := measure[*nfs.FS]{seed: seed, nodes: 1, ppn: ppn, fs: nfsFS(nfs.DefaultConfig()),
				plugins: []core.Plugin{core.MakeFiles{}, core.StatFiles{}, core.DeleteFiles{}},
				params:  core.Params{ProblemSize: 150, WorkDir: "/bench"},
				hook: func(_ *cluster.Cluster, fsys *nfs.FS, _ *sim.Proc) {
					fsys.WAFL().TriggerSnapshots(time.Second)
				}}
			cells = append(cells, cell[*results.Set]{fmt.Sprintf("s%d-p%d", seed, ppn), func() (*results.Set, error) {
				set, _, err := m.run()
				return set, err
			}})
		}
	}
	return spec[*results.Set]{id: "SMOKE", cells: cells,
		report: func(r *Report, out []*results.Set) {
			for _, set := range out {
				r.Charts = append(r.Charts, fingerprintSet(set))
			}
		}}
}

// TestMeasureCellsWorkerInvariant is the determinism contract at the
// measurement level: a spec of measure cells renders byte-identically on
// one worker and on eight; under -race it is also the check that cells
// share no mutable state. Every measurement is complete and in plugin
// order.
func TestMeasureCellsWorkerInvariant(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(1)
	serial := smokeSpec().run()
	par.SetWorkers(8)
	parallel := smokeSpec().run()
	if serial.Err != nil || parallel.Err != nil {
		t.Fatalf("errors: %v, %v", serial.Err, parallel.Err)
	}
	if s, p := serial.String(), parallel.String(); s != p {
		t.Fatalf("report differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", s, p)
	}
	if serial.Charts[0] == serial.Charts[2] {
		t.Fatal("seeds 42 and 43 gave identical runs: the spec cannot tell cells apart")
	}
	set, err := smokeSpec().cells[3].run()
	if err != nil {
		t.Fatal(err)
	}
	ops := []string{"MakeFiles", "StatFiles", "DeleteFiles"}
	for i, m := range set.Measurements {
		if m.Op != ops[i] || m.Failed() || m.TotalOps() != int64(150*m.Procs()) {
			t.Errorf("measurement %d: %s failed=%v ops=%d, want %s with %d ops",
				i, m.Op, m.Failed(), m.TotalOps(), ops[i], 150*m.Procs())
		}
	}
}

// TestMeasureCellIsolation checks that a cell is a pure function of its
// measure: run alone, it reproduces byte for byte the result it gave
// inside the full spec on a wide pool.
func TestMeasureCellIsolation(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(4)
	full := smokeSpec().run()
	if full.Err != nil {
		t.Fatal(full.Err)
	}
	solo, err := smokeSpec().cells[2].run()
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintSet(solo); got != full.Charts[2] {
		t.Fatalf("solo cell differs from its run in the spec:\n%s\nvs\n%s", got, full.Charts[2])
	}
}

// failingPrepare is MakeFiles with a Prepare that always fails.
type failingPrepare struct{ core.MakeFiles }

func (failingPrepare) Prepare(*core.Ctx) error { return errors.New("no space") }

// TestRunSetWorkerError checks that a run whose workers failed is a
// failed run, although the Runner itself returns no error.
func TestRunSetWorkerError(t *testing.T) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	r := &core.Runner{
		Cluster:      cl,
		FS:           localfs.New(k, cl.Nodes[0], localfs.DefaultConfig()),
		Params:       core.Params{ProblemSize: 10, WorkDir: "/bench"},
		SlotsPerNode: 1,
		Plugins:      []core.Plugin{failingPrepare{}},
	}
	_, err := runSet(r)
	if err == nil || !strings.Contains(err.Error(), "prepare: no space") {
		t.Fatalf("runSet = %v, want the worker's prepare error", err)
	}
}

// TestReportFail checks the one failed outcome of a report.
func TestReportFail(t *testing.T) {
	rep := &Report{ID: "EX"}
	rep.finding("a shape that no longer holds")
	cause := errors.New("EX/cell: boom")
	if got := rep.fail(cause); got != rep || rep.Err != cause {
		t.Fatalf("fail returned %p with Err %v", got, rep.Err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0] != "run failed: EX/cell: boom" {
		t.Fatalf("findings = %q, want the single run-failed line", rep.Findings)
	}
}
