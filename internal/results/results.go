// Package results holds benchmark result data and implements the
// preprocessing of §3.3.9: time-interval traces per process (Listing
// 3.3), per-interval summaries with the coefficient of variation of
// per-process performance (Listing 3.4), and the stonewall / fixed-count
// / wall-clock performance averages (Listing 3.5).
package results

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Trace is the time-interval log of one process: Done[i] is the
// cumulative number of operations completed at time (i+1)*Interval after
// the start of the doBench phase.
type Trace struct {
	Host       string
	Op         string
	Proc       int
	Done       []int64
	Final      int64
	FinishedAt time.Duration
}

// Measurement is one (operation, nodes, processes-per-node) run.
type Measurement struct {
	Op       string
	Nodes    int
	PPN      int
	Interval time.Duration
	Traces   []Trace
	// Errors records per-process failures ("" = ok), indexed by rank.
	Errors []string
	// Latencies, when latency collection is enabled, holds one
	// histogram per client operation kind observed during the doBench
	// phase, aggregated over all processes.
	Latencies map[string]*Histogram
	// Series, when set, is the long-horizon per-interval series of a
	// stage measurement (series.go): throughput, COV and latency
	// percentiles per interval. Nil for classic measurements, so their
	// serialized form is unchanged.
	Series []IntervalStat
}

// Procs returns the number of participating processes.
func (m *Measurement) Procs() int { return len(m.Traces) }

// Ticks returns the common trace length.
func (m *Measurement) Ticks() int {
	n := 0
	for _, t := range m.Traces {
		if len(t.Done) > n {
			n = len(t.Done)
		}
	}
	return n
}

// TotalOps sums the final operation counts.
func (m *Measurement) TotalOps() int64 {
	var n int64
	for _, t := range m.Traces {
		n += t.Final
	}
	return n
}

// Failed reports whether any process recorded an error.
func (m *Measurement) Failed() bool {
	for _, e := range m.Errors {
		if e != "" {
			return true
		}
	}
	return false
}

// doneAt returns trace t's cumulative count at tick i (clamped).
func doneAt(t *Trace, i int) int64 {
	if len(t.Done) == 0 {
		return 0
	}
	if i < 0 {
		return 0
	}
	if i >= len(t.Done) {
		return t.Done[len(t.Done)-1]
	}
	return t.Done[i]
}

// SummaryRow is one line of the preprocessed summary (Listing 3.4).
type SummaryRow struct {
	T          time.Duration // end of the interval
	TotalDone  int64         // cumulative operations, all processes
	Throughput float64       // ops/s across this interval
	StdDev     float64       // std dev of per-process ops/s in this interval
	COV        float64       // StdDev / mean of per-process ops/s
}

// Summary computes the per-interval totals, throughput and COV.
func (m *Measurement) Summary() []SummaryRow {
	n := m.Ticks()
	rows := make([]SummaryRow, 0, n)
	secs := m.Interval.Seconds()
	for i := 0; i < n; i++ {
		var total, prev int64
		rates := make([]float64, 0, len(m.Traces))
		for ti := range m.Traces {
			t := &m.Traces[ti]
			cur := doneAt(t, i)
			before := doneAt(t, i-1)
			total += cur
			prev += before
			rates = append(rates, float64(cur-before)/secs)
		}
		row := SummaryRow{
			T:          time.Duration(i+1) * m.Interval,
			TotalDone:  total,
			Throughput: float64(total-prev) / secs,
		}
		row.StdDev, row.COV = stddevCOV(rates)
		rows = append(rows, row)
	}
	return rows
}

func stddevCOV(xs []float64) (sd, cov float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd = math.Sqrt(ss / float64(len(xs)))
	if mean > 0 {
		cov = sd / mean
	}
	return sd, cov
}

// Averages carries the compressed performance numbers of Listing 3.5.
type Averages struct {
	// Stonewall is the total throughput up to the moment the first
	// process finished (§3.2.5).
	Stonewall   float64
	StonewallAt time.Duration
	// WallClock is total operations over the full runtime.
	WallClock float64
	Runtime   time.Duration
	// FixedN maps an operation count to the average throughput up to
	// the first interval where that many operations had completed
	// ("strong scaling" view); 0 when never reached.
	FixedN map[int64]float64
}

// Averages computes the summary numbers; fixedN lists the operation
// counts for the strong-scaling averages.
func (m *Measurement) Averages(fixedN ...int64) Averages {
	a := Averages{FixedN: make(map[int64]float64)}
	n := m.Ticks()
	if n == 0 {
		return a
	}
	// Stonewall tick: first tick at which some finished process had
	// reached its final count.
	stoneTick := -1
	for i := 0; i < n && stoneTick < 0; i++ {
		for ti := range m.Traces {
			t := &m.Traces[ti]
			if t.Final > 0 && doneAt(t, i) >= t.Final {
				stoneTick = i
				break
			}
		}
	}
	if stoneTick < 0 {
		stoneTick = n - 1
	}
	var atStone int64
	for ti := range m.Traces {
		atStone += doneAt(&m.Traces[ti], stoneTick)
	}
	a.StonewallAt = time.Duration(stoneTick+1) * m.Interval
	a.Stonewall = float64(atStone) / a.StonewallAt.Seconds()

	var runtime time.Duration
	for _, t := range m.Traces {
		if t.FinishedAt > runtime {
			runtime = t.FinishedAt
		}
	}
	if runtime == 0 {
		runtime = time.Duration(n) * m.Interval
	}
	a.Runtime = runtime
	a.WallClock = float64(m.TotalOps()) / runtime.Seconds()

	for _, want := range fixedN {
		for i := 0; i < n; i++ {
			var total int64
			for ti := range m.Traces {
				total += doneAt(&m.Traces[ti], i)
			}
			if total >= want {
				a.FixedN[want] = float64(want) / (time.Duration(i+1) * m.Interval).Seconds()
				break
			}
		}
	}
	return a
}

// Set is one result set: everything produced by a single benchmark run
// (§3.3.9), across operations and node/process combinations.
type Set struct {
	Label        string
	FS           string
	Interval     time.Duration
	Measurements []*Measurement
	// Environment holds the profiling key/value pairs captured before
	// the run (§3.2.6).
	Environment map[string]string
}

// NewSet returns an empty result set.
func NewSet(label, fsName string, interval time.Duration) *Set {
	return &Set{Label: label, FS: fsName, Interval: interval,
		Environment: make(map[string]string)}
}

// Add appends a measurement.
func (s *Set) Add(m *Measurement) { s.Measurements = append(s.Measurements, m) }

// Find returns the measurement for (op, nodes, ppn), or nil.
func (s *Set) Find(op string, nodes, ppn int) *Measurement {
	for _, m := range s.Measurements {
		if m.Op == op && m.Nodes == nodes && m.PPN == ppn {
			return m
		}
	}
	return nil
}

// Ops returns the distinct operation names in insertion order.
func (s *Set) Ops() []string {
	var ops []string
	seen := map[string]bool{}
	for _, m := range s.Measurements {
		if !seen[m.Op] {
			seen[m.Op] = true
			ops = append(ops, m.Op)
		}
	}
	return ops
}

// ScalePoint is one point of a scaling series.
type ScalePoint struct {
	Nodes, PPN, Procs int
	Stonewall         float64
}

// ScaleSeries returns the stonewall averages of one operation over all
// measured combinations, ordered by (ppn, nodes).
func (s *Set) ScaleSeries(op string) []ScalePoint {
	var pts []ScalePoint
	for _, m := range s.Measurements {
		if m.Op != op {
			continue
		}
		a := m.Averages()
		pts = append(pts, ScalePoint{Nodes: m.Nodes, PPN: m.PPN,
			Procs: m.Procs(), Stonewall: a.Stonewall})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].PPN != pts[j].PPN {
			return pts[i].PPN < pts[j].PPN
		}
		return pts[i].Nodes < pts[j].Nodes
	})
	return pts
}

// WriteTrace emits the raw per-process records in the TSV layout of
// Listing 3.3.
func (m *Measurement) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "Hostname\tOperation\tProcessNo\tTimestamp\tOperationsDone")
	for _, t := range m.Traces {
		for i, done := range t.Done {
			ts := time.Duration(i+1) * m.Interval
			fmt.Fprintf(bw, "%s\t%s\t%d\t%.1f\t%d\n", t.Host, t.Op, t.Proc, ts.Seconds(), done)
		}
	}
	return bw.Flush()
}

// WriteSummary emits the preprocessed rows in the layout of Listing 3.4.
func (m *Measurement) WriteSummary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range m.Summary() {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%.1f\t%d\t%.1f\t%.3f\n",
			m.Op, m.Nodes, m.Procs(), r.T.Seconds(), r.TotalDone, r.StdDev, r.COV)
	}
	return bw.Flush()
}

// TraceFileName returns the canonical result file name
// (results-<op>-<nodes>-<procs>.tsv, §3.3.9).
func (m *Measurement) TraceFileName() string {
	return fmt.Sprintf("results-%s-%d-%d.tsv", m.Op, m.Nodes, m.Procs())
}

// ParseTrace reads a trace TSV (as written by WriteTrace) back into a
// measurement with the given configuration.
func ParseTrace(r io.Reader, nodes, ppn int, interval time.Duration) (*Measurement, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	m := &Measurement{Nodes: nodes, PPN: ppn, Interval: interval}
	byProc := map[int]*Trace{}
	var order []int
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(line, "Hostname") {
				continue
			}
		}
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("results: malformed line %q", line)
		}
		proc, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("results: bad process number %q", f[2])
		}
		done, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("results: bad count %q", f[4])
		}
		t, ok := byProc[proc]
		if !ok {
			t = &Trace{Host: f[0], Op: f[1], Proc: proc}
			byProc[proc] = t
			order = append(order, proc)
		}
		if m.Op == "" {
			m.Op = f[1]
		}
		t.Done = append(t.Done, done)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Ints(order)
	for _, p := range order {
		t := byProc[p]
		if n := len(t.Done); n > 0 {
			t.Final = t.Done[n-1]
			t.FinishedAt = time.Duration(n) * interval
		}
		m.Traces = append(m.Traces, *t)
	}
	m.Errors = make([]string, len(m.Traces))
	return m, nil
}
