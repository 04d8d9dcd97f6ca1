// Package experiments regenerates the evaluation of the thesis (Chapter
// 4): every table and figure is an experiment declared as data here —
// the cells that build and run its simulated environments, and the
// report of the numbers and shapes the paper discusses (cells.go).
// cmd/experiments prints the reports; the root bench_test.go exposes
// each as a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// Domains, when > 0, overrides Config.Domains for every file-system
// model in the suite — sharded, NFS and Lustre alike (the -domains flag
// of cmd/experiments): each simulation is partitioned into that many
// event-kernel domains running under the conservative-lookahead
// protocol through the shared service runtime. 0 keeps each
// experiment's own setting — the single-heap kernel, which the
// committed EXPERIMENTS.md corpus was generated with.
var Domains int

// newShardFS, newNFSFS and newLustreFS are the construction points for
// the three file-system models in this package; they apply the
// package-wide Domains override so one flag domains every experiment.
// E34 and E35 bypass them deliberately — those experiments pin their own
// Domains so their reports are byte-identical at any -domains value.
func newShardFS(k *sim.Kernel, name string, cfg shard.Config) *shard.FS {
	if Domains > 0 {
		cfg.Domains = Domains
	}
	return shard.New(k, name, cfg)
}

func newNFSFS(k *sim.Kernel, name string, cfg nfs.Config) *nfs.FS {
	if Domains > 0 {
		cfg.Domains = Domains
	}
	return nfs.New(k, name, cfg)
}

func newLustreFS(k *sim.Kernel, name string, cfg lustre.Config) *lustre.FS {
	if Domains > 0 {
		cfg.Domains = Domains
	}
	return lustre.New(k, name, cfg)
}

// shardFS, nfsFS and lustreFS are the same constructors as a measure's
// fs.
func shardFS(cfg shard.Config) func(*sim.Kernel, *cluster.Cluster) *shard.FS {
	return func(k *sim.Kernel, _ *cluster.Cluster) *shard.FS { return newShardFS(k, "meta", cfg) }
}

func nfsFS(cfg nfs.Config) func(*sim.Kernel, *cluster.Cluster) *nfs.FS {
	return func(k *sim.Kernel, _ *cluster.Cluster) *nfs.FS { return newNFSFS(k, "home", cfg) }
}

func lustreFS(cfg lustre.Config) func(*sim.Kernel, *cluster.Cluster) *lustre.FS {
	return func(k *sim.Kernel, _ *cluster.Cluster) *lustre.FS { return newLustreFS(k, "scratch", cfg) }
}

// Row is one reported metric.
type Row struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// Report is the outcome of one experiment.
type Report struct {
	ID       string
	Title    string
	PaperRef string
	Rows     []Row
	// Charts holds rendered ASCII charts.
	Charts []string
	// Findings summarizes the shape comparison against the paper.
	Findings []string
	// Volatile marks a report whose values are real-time measurements
	// of the host machine (E02) rather than deterministic virtual-time
	// results. The committed EXPERIMENTS.md replaces volatile values
	// with a placeholder so regeneration is byte-stable across machines
	// (the CI docs job diffs it).
	Volatile bool
	// Err is set when the experiment failed; its rows are then
	// incomplete and its one finding says so.
	Err error
}

func (r *Report) row(name string, value float64, unit, note string) {
	r.Rows = append(r.Rows, Row{Name: name, Value: value, Unit: unit, Note: note})
}

func (r *Report) finding(format string, args ...interface{}) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// fail records err as the outcome of the experiment: it sets Err and
// replaces the findings with the single "run failed" line.
func (r *Report) fail(err error) *Report {
	r.Err = err
	r.Findings = []string{fmt.Sprintf("run failed: %v", err)}
	return r
}

// FormatValue renders a row value the way every report prints it: one
// decimal, or three for a fraction strictly between -10 and 10.
func FormatValue(v float64) string {
	if v < 10 && v > -10 && v != float64(int64(v)) {
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("%.1f", v)
}

// String renders the report as text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s (%s) ==\n", r.ID, r.Title, r.PaperRef)
	for _, row := range r.Rows {
		note := ""
		if row.Note != "" {
			note = "  # " + row.Note
		}
		fmt.Fprintf(&b, "  %-46s %14s %-8s%s\n", row.Name, FormatValue(row.Value), row.Unit, note)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  -> %s\n", f)
	}
	for _, c := range r.Charts {
		b.WriteString(c)
	}
	return b.String()
}

// Experiment is one entry of the registry: a spec with its result
// type erased. Cells is the number of cells it declares — the
// parallelism it exposes to the par worker pool; every experiment
// still runs concurrently with the others in the suite.
type Experiment struct {
	ID    string
	Run   func() *Report
	Cells int
	// names are the declared cell names, in cell order.
	names []string
}

// All lists every experiment in evaluation order.
func All() []Experiment {
	return []Experiment{
		define(e01SyscallCounts),
		define(e02HarnessOverhead),
		define(e03CPUHogCOV),
		define(e04SnapshotNoise),
		define(e05ConsistencyPoints),
		define(e06WriteInterference),
		define(e07CreateScaling),
		define(e08LargeDirectories),
		define(e09AllocationBursts),
		define(e10PriorityScheduling),
		define(e11SMPScaling),
		define(e12LatencySweep),
		define(e13NamespaceAggregation),
		define(e14AFS),
		define(e15WritebackCaching),
		define(e16ShardScaling),
		define(e17ShardSkew),
		define(e18CrossShard),
		define(e19FailoverTimeline),
		define(e20ReplicationOverhead),
		define(e21RecoveryScaling),
		define(e22LeaseTTL),
		define(e23CacheModes),
		define(e24FailoverCachedLoad),
		define(e25SplitScaling),
		define(e26SplitStorm),
		define(e27SplitRouting),
		define(e28BackendProfile),
		define(e29CompactionTimeline),
		define(e30GroupCommit),
		define(e31AggregateDay),
		define(e32ForegroundTail),
		define(e33CapacityPressure),
		define(e34DomainedServers),
		define(e35FilerAtScale),
	}
}

const (
	chartW = 68
	chartH = 9
)

// stoneOf returns the stonewall throughput of (op, nodes, ppn) in a set,
// or 0 when missing.
func stoneOf(set *results.Set, op string, nodes, ppn int) float64 {
	m := set.Find(op, nodes, ppn)
	if m == nil {
		return 0
	}
	return m.Averages().Stonewall
}

// rate returns a measurement's wall-clock throughput, which uses exact
// completion times and is therefore meaningful even for runs shorter
// than one sampling interval (where the stonewall average floors at the
// grid).
func rate(m *results.Measurement) float64 { return m.Averages().WallClock }

// windowThroughput averages the per-interval throughput of a measurement
// between from and to.
func windowThroughput(m *results.Measurement, from, to time.Duration) float64 {
	rows := m.Summary()
	var sum float64
	var n int
	for _, r := range rows {
		if r.T > from && r.T <= to {
			sum += r.Throughput
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// minThroughput returns the lowest per-interval throughput of a
// measurement between from and to; ok is false when the window holds
// no samples (a genuine zero-throughput interval is a valid minimum,
// an empty window is not).
func minThroughput(m *results.Measurement, from, to time.Duration) (min float64, ok bool) {
	min = -1
	for _, r := range m.Summary() {
		if r.T > from && r.T <= to && (min < 0 || r.Throughput < min) {
			min = r.Throughput
		}
	}
	if min < 0 {
		return 0, false
	}
	return min, true
}

// maxCOV returns the maximum COV between from and to.
func maxCOV(m *results.Measurement, from, to time.Duration) float64 {
	var max float64
	for _, r := range m.Summary() {
		if r.T > from && r.T <= to && r.COV > max {
			max = r.COV
		}
	}
	return max
}
