package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"dmetabench/internal/agg"
	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
	"dmetabench/internal/workload"
)

// E34–E35: the shared metadata-service runtime. The
// conservative-lookahead parallel kernel first served the sharded MDS
// only; the substrate now lives in internal/service and every file-system model —
// NFS filer, Lustre MDS/OSS, sharded — runs through it. These
// experiments measure what that buys: E34 the protocol overhead and
// parallelism headroom of domaining the single-server models, and E35
// the paper's filer confronted with a modern million-client population.
//
// Both pin their own Domains (bypassing the package-wide override)
// so the committed corpus is byte-identical at any -domains value, and
// every cell is a pure function of its seed, so the reports are
// byte-identical at any -j/worker count.

// grouper is the slice of any FS model that exposes its domain group.
type grouper interface{ Group() *sim.DomainGroup }

// fingerprintSet serializes a result set exactly as Save would write its
// trace/summary/series files — the byte-identity unit the determinism
// rows of E34 compare in memory.
func fingerprintSet(set *results.Set) string {
	var b strings.Builder
	for _, m := range set.Measurements {
		b.WriteString(m.TraceFileName() + "\n")
		m.WriteTrace(&b)
		m.WriteSummary(&b)
		if len(m.Series) > 0 {
			m.WriteSeries(&b)
		}
	}
	return b.String()
}

// groupStats reads window count and per-domain event shares after a run:
// headroom is total events dispatched over the busiest domain's share —
// the speedup bound an ideal multi-core run converges to.
func groupStats(g *sim.DomainGroup) (windows int64, events int64, headroom float64) {
	if g == nil {
		return 0, 0, 1
	}
	var max int64
	for i := 0; i < g.NumDomains(); i++ {
		d := g.Kernel(i).Dispatched()
		events += d
		if d > max {
			max = d
		}
	}
	if max == 0 {
		return g.Windows(), events, 1
	}
	return g.Windows(), events, float64(events) / float64(max)
}

// e34Cell is one E34 run: a fixed create+stat workload on one
// single-server model, with the post-run group statistics.
type e34Cell struct {
	set      *results.Set
	fp       string
	windows  int64
	events   int64
	headroom float64
}

// e34Workload drives the common foreground: 8 nodes x 4 processes
// creating and statting under a 1-second-interval measurement.
func e34Workload(k *sim.Kernel, fsys core.FileSystem) (*results.Set, error) {
	cl := cluster.New(k, cluster.DefaultConfig(8))
	r := &core.Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       core.Params{ProblemSize: 3000, WorkDir: "/bench"},
		SlotsPerNode: 4,
		Plugins:      []core.Plugin{core.MakeFiles{}, core.StatFiles{}},
		Filter:       func(c core.Combo) bool { return c.Nodes == 8 && c.PPN == 4 },
	}
	return runSet(r)
}

// runE34Cell builds the model named by fs ("nfs" or "lustre") with the
// given domain count, runs the workload and reads the group statistics.
// workers sizes the OS-thread pool (0 = default) and must not change a
// single reported byte.
func runE34Cell(fsName string, domains, workers int) (e34Cell, error) {
	k := sim.New(3400)
	var fsys core.FileSystem
	var grp grouper
	switch fsName {
	case "nfs":
		cfg := nfs.DefaultConfig()
		cfg.Domains = domains
		f := nfs.New(k, "home", cfg)
		fsys, grp = f, f
	default:
		cfg := lustre.DefaultConfig()
		cfg.Domains = domains
		f := lustre.New(k, "scratch", cfg)
		fsys, grp = f, f
	}
	g := grp.Group()
	if g != nil && workers > 0 {
		g.Workers = workers
	}
	set, err := e34Workload(k, fsys)
	if err != nil {
		return e34Cell{}, err
	}
	c := e34Cell{set: set, fp: fingerprintSet(set)}
	c.windows, c.events, c.headroom = groupStats(g)
	return c, nil
}

// E34DomainedServers runs the NFS filer and the Lustre MDS/OSS complex
// through the shared service runtime's kernel domains and measures the
// two things that matter: the protocol's cost in modeled throughput
// (domained vs the legacy single-heap run of the identical workload)
// and the parallelism headroom the partitioning exposes. The domained
// cells run twice — one worker thread vs eight — and their serialized
// result sets are byte-compared: worker-count invariance is the safety
// property the conservative protocol guarantees.
func E34DomainedServers() *Report {
	r := &Report{ID: "E34", Title: "Kernel domains for the single-server models",
		PaperRef: "beyond §3.2 (shared service runtime, parallel DES)"}
	type spec struct {
		fs               string
		domains, workers int
	}
	specs := []spec{
		{"nfs", 0, 0}, {"nfs", 2, 1}, {"nfs", 2, 8},
		{"lustre", 0, 0}, {"lustre", 8, 1}, {"lustre", 8, 8},
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.domains == 0 {
			names[i] = s.fs + "-legacy"
		} else {
			names[i] = fmt.Sprintf("%s-dom-w%d", s.fs, s.workers)
		}
	}
	cells, err := parCells("E34", names, func(i int) (e34Cell, error) {
		s := specs[i]
		return runE34Cell(s.fs, s.domains, s.workers)
	})
	if err != nil {
		return r.fail(err)
	}
	for i := range cells {
		r.Sets = append(r.Sets, cells[i].set)
	}
	for fi, fsName := range []string{"nfs", "lustre"} {
		legacy, w1, w8 := &cells[3*fi], &cells[3*fi+1], &cells[3*fi+2]
		lRate := wallOf(legacy.set, "MakeFiles", 8, 4)
		dRate := wallOf(w1.set, "MakeFiles", 8, 4)
		det := 0.0
		if w1.fp != "" && w1.fp == w8.fp {
			det = 1
		}
		r.row(fmt.Sprintf("%-6s legacy creates/s", fsName), lRate, "ops/s",
			"single-heap kernel")
		r.row(fmt.Sprintf("%-6s domained creates/s", fsName), dRate, "ops/s",
			fmt.Sprintf("%d windows", w1.windows))
		r.row(fmt.Sprintf("%-6s protocol overhead", fsName),
			100*safeDiv(lRate-dRate, lRate), "%", "modeled throughput delta")
		r.row(fmt.Sprintf("%-6s events/window", fsName),
			safeDiv(float64(w1.events), float64(w1.windows)), "", "")
		r.row(fmt.Sprintf("%-6s parallelism headroom", fsName), w1.headroom, "x",
			"events / busiest domain")
		r.row(fmt.Sprintf("%-6s worker invariance", fsName), det, "",
			"1 = 1-vs-8-worker byte-identical")
	}
	nfsDet := cells[1].fp == cells[2].fp
	lusDet := cells[4].fp == cells[5].fp
	nfsRate := wallOf(cells[0].set, "MakeFiles", 8, 4)
	nfsDom := wallOf(cells[1].set, "MakeFiles", 8, 4)
	r.finding("the shared service runtime domains the single-server models "+
		"the same way it domains the sharded MDS: worker-count invariance "+
		"holds (nfs %v, lustre %v) and the cross-domain RPC discipline is "+
		"modeled-throughput-neutral on this workload (%.0f vs %.0f creates/s "+
		"on the filer) — the cost is wall-clock protocol, not virtual time. "+
		"A metadata-only load concentrates events on the client and "+
		"MDS domains, so headroom stays at %.1fx (nfs) and %.1fx (lustre) "+
		"until data-path traffic spreads onto the OSS domains",
		nfsDet, lusDet, nfsRate, nfsDom, cells[1].headroom, cells[4].headroom)
	return r
}

// e35Cell is one E35 run: the domained filer under an aggregate
// background population, probed by the stage harness.
type e35Cell struct {
	set     *results.Set
	aggOps  int64
	aggShed int64
}

func (c *e35Cell) shedFrac() float64 {
	total := c.aggOps + c.aggShed
	if total == 0 {
		return 0
	}
	return float64(c.aggShed) / float64(total)
}

// runE35Cell drives one simulated day on a single NFS filer: clients
// background arrivals (diurnal-modulated) injected into the filer's
// thread pool, four fully-simulated probes measuring the foreground
// tail. Domains is pinned to 2 (client domain + filer domain), so the
// injector lanes run as daemons on the filer's own kernel.
func runE35Cell(seed int64, clients int, period, interval time.Duration, label string) (e35Cell, error) {
	k := sim.New(seed)
	cl := cluster.New(k, cluster.DefaultConfig(4))
	cfg := nfs.DefaultConfig()
	cfg.Domains = 2
	fsys := nfs.New(k, "home", cfg)
	lanes := cfg.ServerThreads
	const tick = 250 * time.Millisecond
	if clients > 0 {
		model := agg.Model{
			Clients:      clients,
			OpsPerClient: 0.1,
			Mix:          workload.DefaultMetaMix(),
			Zipf:         agg.ZipfPop{S: 1.1, V: 1, N: 512},
			Diurnal:      agg.Diurnal{Amplitude: 0.6, Period: period},
			Churn:        agg.Churn{ActiveFrac: 0.5, SessionMean: 30 * time.Minute, Tick: tick},
			Tick:         tick,
			Seed:         seed,
		}
		sources := agg.NewSources(model, 1, lanes, func(int) int { return 0 })
		fsys.AttachAggregate(model.Tick, func(_, lane, tick int) service.Demand {
			d := sources[lane].Tick(int64(tick))
			return service.Demand{Getattr: d.Getattr, Lookup: d.Lookup,
				Readdir: d.Readdir, Create: d.Create}
		})
	}
	r := &core.StageRunner{
		Cluster:  cl,
		FS:       fsys,
		Probes:   4,
		Interval: interval,
		Think:    time.Second,
		Label:    label,
		Stages:   []core.Stage{{Name: "day", Duration: period}},
		Aux: func() int64 {
			ops, _, _ := fsys.AggCounts()
			return ops
		},
	}
	set, err := runSet(r)
	if err != nil {
		return e35Cell{}, err
	}
	c := e35Cell{set: set}
	c.aggOps, c.aggShed, _ = fsys.AggCounts()
	return c, nil
}

// E35FilerAtScale puts the paper's workhorse — one NFS filer — under a
// population it never met in 2008: one million aggregate background
// clients over a simulated day, injected through the shared runtime's
// aggregate port into the filer's own kernel domain. A quiet twin cell
// (no background) runs the same probes for the baseline tail. The
// question is the filer's failure shape at modern scale: how much of
// the offered load the open-loop admission sheds, and what the diurnal
// swing does to the foreground tail.
func E35FilerAtScale() *Report {
	r := &Report{ID: "E35", Title: "The paper's filer at modern scale: 1M background clients",
		PaperRef: "beyond §4.2 (single filer, population scale, -period 3h day)"}
	period := periodOr(3 * time.Hour)
	interval := stageInterval(period, 180)
	const clients = 1_000_000
	cells, err := parCells("E35", []string{"quiet", "loaded"}, func(i int) (e35Cell, error) {
		if i == 0 {
			return runE35Cell(3501, 0, period, interval, "E35-quiet")
		}
		return runE35Cell(3502, clients, period, interval, "E35-loaded")
	})
	if err != nil {
		return r.fail(err)
	}
	q, l := &cells[0], &cells[1]
	r.Sets = append(r.Sets, q.set, l.set)
	qm, lm := q.set.Measurements[0], l.set.Measurements[0]
	lw, ok := lm.Window(0, period)
	qw, qok := qm.Window(0, period)
	if !ok || !qok {
		return r.fail(errors.New("day produced no intervals"))
	}
	r.row("offered background", float64(clients)*0.1*0.5/1000, "kops/s",
		fmt.Sprintf("%d clients x 0.1 ops/s x 50%% active", clients))
	r.row("admitted background", lw.MeanAuxRate/1000, "kops/s",
		"what the filer's pool holds")
	r.row("shed fraction", 100*l.shedFrac(), "%", "open-loop admission control")
	r.row("diurnal peak/trough", safeDiv(lw.PeakAuxRate, lw.TroughAuxRate), "x",
		fmt.Sprintf("%.0fk / %.0fk ops/s", lw.PeakAuxRate/1000, lw.TroughAuxRate/1000))
	r.row("quiet   foreground p99", float64(qw.MaxP99.Microseconds()), "us",
		"no background, worst interval")
	r.row("loaded  foreground p99", float64(lw.MaxP99.Microseconds()), "us",
		"worst interval of the day")
	xs := make([]float64, 0, len(lm.Series))
	ys := make([]float64, 0, len(lm.Series))
	for _, s := range lm.Series {
		xs = append(xs, s.T.Hours())
		ys = append(ys, float64(s.Aux)/interval.Seconds()/1000)
	}
	r.Charts = append(r.Charts, charts.Render(
		"Admitted background throughput over the simulated day (1 filer)",
		"hours", "kops/s", chartW, chartH, []charts.Series{{Name: "admitted", X: xs, Y: ys}}))
	r.finding("one filer meets a million clients: the pool absorbs the "+
		"offered mean (only %.1f%% shed by open-loop admission), but the "+
		"%.1fx diurnal swing drives the peak to the pool's edge and the "+
		"foreground tail pays for it — worst-interval p99 inflates %.0fx "+
		"over the quiet twin (%.0f vs %.0f us). The paper's single-server "+
		"saturation shape, reproduced at a population the 2008 study could "+
		"not instantiate",
		100*l.shedFrac(), safeDiv(lw.PeakAuxRate, lw.TroughAuxRate),
		safeDiv(float64(lw.MaxP99.Microseconds()), float64(qw.MaxP99.Microseconds())),
		float64(lw.MaxP99.Microseconds()), float64(qw.MaxP99.Microseconds()))
	return r
}
