package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/par"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// Every experiment is declared as data: a spec names it, lists its
// cells and renders its report from the cell results. A cell is one
// independent unit of simulated work — one seeded kernel run, usually a
// measure, or one derived data point — and the cells of every
// experiment fan out across the par worker pool and merge in
// declaration order. Each cell writes only its own result slot, so the
// assembled report is byte-identical at any worker count; shared seeds
// are written into cells explicitly, never drawn from shared state.
// cmd/experiments -j sets the pool size, -cells prints the recorded
// per-cell wall-clock timings.
//
// A cell fails in one way: it returns an error. The spec's run names it
// after the cell and fails the report with it.

// cell is one named unit of an experiment. Its name is its -cells
// label, "<ID>/<name>".
type cell[T any] struct {
	name string
	run  func() (T, error)
}

// spec is one experiment: its identity, its cells and the report over
// their results, which arrive in cell order.
type spec[T any] struct {
	id, title, ref string
	// volatile marks real-time host measurements (Report.Volatile).
	volatile bool
	cells    []cell[T]
	report   func(r *Report, out []T)
}

// run runs and times every cell across the worker pool, then renders
// the report. Every cell runs, failing or not; a failed cell fails the
// report with the error of the failing cell with the lowest index, as
// "<ID>/<name>: ...", so it is the same at any worker count.
func (s spec[T]) run() *Report {
	r := &Report{ID: s.id, Title: s.title, PaperRef: s.ref, Volatile: s.volatile}
	out := make([]T, len(s.cells))
	errs := make([]error, len(s.cells))
	par.Do(len(s.cells), func(i int) {
		start := time.Now()
		out[i], errs[i] = s.cells[i].run()
		par.RecordTiming(s.id+"/"+s.cells[i].name, time.Since(start))
	})
	for i, err := range errs {
		if err != nil {
			return r.fail(fmt.Errorf("%s/%s: %w", s.id, s.cells[i].name, err))
		}
	}
	s.report(r, out)
	return r
}

// define is the registry entry of the experiment that build declares.
// Run builds the spec afresh, so package settings such as Period are
// read when the experiment runs, not when the registry is listed.
func define[T any](build func() spec[T]) Experiment {
	s := build()
	names := make([]string, len(s.cells))
	for i, c := range s.cells {
		names[i] = c.name
	}
	return Experiment{ID: s.id, Cells: len(names), names: names,
		Run: func() *Report { return build().run() }}
}

// measure is one DMetabench measurement on a fresh kernel seeded with
// seed: nodes x ppn workers run each plugin in turn, in one directory
// tree, against the file system fs builds on the cluster.
type measure[F core.FileSystem] struct {
	seed int64
	// size is the cluster's node count when it exceeds nodes; smp, when
	// positive, makes the cluster one SMP node with that many cores.
	size, smp  int
	nodes, ppn int
	fs         func(k *sim.Kernel, cl *cluster.Cluster) F
	plugins    []core.Plugin
	params     core.Params
	// hook runs in the master at the start of every bench phase.
	hook func(cl *cluster.Cluster, fsys F, mp *sim.Proc)
}

// run executes the measurement and returns its result set, which holds
// one measurement per plugin in plugin order, and the file system for
// counter readout.
func (m measure[F]) run() (*results.Set, F, error) {
	k := sim.New(m.seed)
	var cl *cluster.Cluster
	if m.smp > 0 {
		cl = cluster.NewSMP(k, m.smp)
	} else {
		cl = cluster.New(k, cluster.DefaultConfig(max(m.size, m.nodes)))
	}
	fsys := m.fs(k, cl)
	r := &core.Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       m.params,
		SlotsPerNode: m.ppn,
		Plugins:      m.plugins,
		Filter:       func(c core.Combo) bool { return c.Nodes == m.nodes && c.PPN == m.ppn },
	}
	if m.hook != nil {
		r.BenchStartHook = func(mp *sim.Proc, _ core.MeasurementInfo) { m.hook(cl, fsys, mp) }
	}
	set, err := runSet(r)
	if err == nil && len(set.Measurements) != len(m.plugins) {
		err = fmt.Errorf("no %dx%d combo on a %d-node cluster", m.nodes, m.ppn, len(cl.Nodes))
	}
	return set, fsys, err
}

// read is the measurement m as a named cell that yields what get reads
// from its first plugin's measurement and its file system. The cell
// keeps nothing else, so its simulated world is garbage once it returns.
func read[F core.FileSystem, T any](name string, m measure[F], get func(*results.Measurement, F) T) cell[T] {
	return cell[T]{name, func() (T, error) {
		set, fsys, err := m.run()
		if err != nil {
			var zero T
			return zero, err
		}
		return get(set.Measurements[0], fsys), nil
	}}
}

// cell is the measurement as a named cell that yields its first
// plugin's measurement.
func (m measure[F]) cell(name string) cell[*results.Measurement] {
	return read(name, m, func(r *results.Measurement, _ F) *results.Measurement { return r })
}

// sweep is one cell per (nodes, ppn) point of plan, in plan order, each
// the measurement at that point, named "<prefix>/n<nodes>p<ppn>".
func (m measure[F]) sweep(prefix string, plan [][2]int) []cell[*results.Measurement] {
	cells := make([]cell[*results.Measurement], len(plan))
	for i, pt := range plan {
		m.nodes, m.ppn = pt[0], pt[1]
		cells[i] = m.cell(fmt.Sprintf("%s/n%dp%d", prefix, pt[0], pt[1]))
	}
	return cells
}

// setRunner is the Run method core.Runner and core.StageRunner share.
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
