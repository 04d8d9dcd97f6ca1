package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/par"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// Every experiment below decomposes into cells: independent units of
// simulated work (one seeded kernel run or one derived data point) that
// fan out across the par worker pool and merge in declaration order.
// Each cell writes only its own slot of the result slice, so the
// assembled report is byte-identical at any worker count; shared seeds
// are passed into cells explicitly, never drawn from shared state.
// cmd/experiments -j sets the pool size, -cells prints the recorded
// per-cell wall-clock timings.
//
// A cell fails in one way: it returns an error. parCells passes it up
// named after the cell, and the experiment hands it to Report.fail.

// parCells runs one cell per name across the worker pool and returns
// the results in cell order. Timings are recorded as "<expID>/<name>".
// Every cell runs, failing or not; the error is the one of the failing
// cell with the lowest index, as "<expID>/<name>: ...", so it is the
// same at any worker count.
func parCells[T any](expID string, names []string, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, len(names))
	errs := make([]error, len(names))
	par.Do(len(names), func(i int) {
		start := time.Now()
		out[i], errs[i] = run(i)
		par.RecordTiming(expID+"/"+names[i], time.Since(start))
	})
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("%s/%s: %w", expID, names[i], err)
		}
	}
	return out, nil
}

// setRunner is the Run method core.Runner, core.ParallelRunner and
// core.StageRunner share.
type setRunner interface {
	Run() (*results.Set, error)
}

// runSet runs r and returns its result set. It fails with the run's
// error, or else with the first measurement whose workers failed.
func runSet(r setRunner) (*results.Set, error) {
	set, err := r.Run()
	if err != nil {
		return nil, err
	}
	for _, m := range set.Measurements {
		for rank, e := range m.Errors {
			if e != "" {
				return nil, fmt.Errorf("%s %dx%d rank %d: %s", m.Op, m.Nodes, m.PPN, rank, e)
			}
		}
	}
	return set, nil
}

// runProc spawns body as a process named name on k, drives k to
// completion and returns the kernel's error, or else the body's.
func runProc(k *sim.Kernel, name string, body func(p *sim.Proc) error) error {
	var err error
	k.Spawn(name, func(p *sim.Proc) { err = body(p) })
	if kerr := k.Run(); kerr != nil {
		return kerr
	}
	return err
}
