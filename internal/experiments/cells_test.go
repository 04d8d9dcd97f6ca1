package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/localfs"
	"dmetabench/internal/par"
	"dmetabench/internal/sim"
)

// TestParCellsFailure pins the failure contract of parCells: every cell
// runs and is timed, and the error is the lowest-index failing cell's,
// named after it, at any worker count.
func TestParCellsFailure(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	names := []string{"a", "b", "c", "d", "e"}
	for _, workers := range []int{1, 8} {
		par.SetWorkers(workers)
		par.DrainTimings()
		out, err := parCells("EX", names, func(i int) (int, error) {
			if i == 1 || i == 3 {
				return 0, fmt.Errorf("cell %d broke", i)
			}
			return 10 * i, nil
		})
		if err == nil || err.Error() != "EX/b: cell 1 broke" {
			t.Errorf("workers %d: err = %v, want EX/b: cell 1 broke", workers, err)
		}
		if out[4] != 40 {
			t.Errorf("workers %d: cell 4 = %d, want 40 (every cell runs)", workers, out[4])
		}
		timed := map[string]bool{}
		for _, tm := range par.DrainTimings() {
			timed[tm.Label] = true
		}
		for _, n := range names {
			if !timed["EX/"+n] {
				t.Errorf("workers %d: no timing for cell %s", workers, n)
			}
		}
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
