package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// a01AveragingMethods is the design ablation behind §3.2.5: on a run
// where one process lags, the wall-clock, stonewall and fixed-N averages
// tell different stories, and only the interval log shows why. We build
// the skewed run (one hogged node of four) and compare every summary the
// framework can produce.
func a01AveragingMethods() spec[*results.Measurement] {
	m := measure[*nfs.FS]{seed: 2001, nodes: 4, ppn: 1, fs: nfsFS(nfs.DefaultConfig()),
		plugins: []core.Plugin{core.MakeFiles{}},
		params:  core.Params{ProblemSize: 6000, WorkDir: "/bench"},
		hook: func(cl *cluster.Cluster, _ *nfs.FS, mp *sim.Proc) {
			// One node runs at half speed for the whole bench: the
			// P3-lags-P1/P2 scenario of Fig. 3.2(b).
			cl.Nodes[2].StartCPUHog(24, 0, mp.Now(), 60*time.Second)
		}}
	return spec[*results.Measurement]{
		id: "A01", title: "Ablation: wall-clock vs stonewall vs fixed-N averaging",
		ref:   "§3.2.5, Fig. 3.2",
		cells: []cell[*results.Measurement]{m.cell("skewed")},
		report: func(r *Report, out []*results.Measurement) {
			a := out[0].Averages(6000, 12000)
			r.row("wall-clock average", a.WallClock, "ops/s", "total ops / last finisher")
			r.row("stonewall average", a.Stonewall, "ops/s", "cut at first finisher")
			r.row("fixed-N average (6k ops)", a.FixedN[6000], "ops/s", "strong-scaling view")
			r.row("fixed-N average (12k ops)", a.FixedN[12000], "ops/s", "")
			r.row("stonewall / wall-clock", a.Stonewall/a.WallClock, "x", "")
			r.finding("paper: summary numbers hide lagging processes (Fig. 3.2); the "+
				"stonewall average is %.0f%% above wall-clock on this skewed run, and "+
				"only the COV trace identifies the slow node", 100*(a.Stonewall/a.WallClock-1))
		},
	}
}

// a02WritebackWindow sweeps the write-back window size (the design knob
// of §4.8/§5.2.1): a larger window absorbs longer bursts but cannot lift
// the sustained rate above the metadata server's capacity.
func a02WritebackWindow() spec[*results.Measurement] {
	const window = 4 * time.Second
	// One cell per write-back window size.
	windows := []int{256, 1024, 4096, 16384}
	var cells []cell[*results.Measurement]
	for _, w := range windows {
		cfg := lustre.DefaultConfig()
		cfg.Writeback = true
		cfg.WritebackWindow = w
		m := measure[*lustre.FS]{seed: int64(2100 + w), nodes: 1, ppn: 1, fs: lustreFS(cfg),
			plugins: []core.Plugin{core.MakeFiles{}},
			params:  core.Params{ProblemSize: 1 << 20, TimeLimit: window, WorkDir: "/bench"}}
		cells = append(cells, m.cell(fmt.Sprintf("window%d", w)))
	}
	return spec[*results.Measurement]{
		id: "A02", title: "Ablation: write-back window size", ref: "§4.8, §5.2.1",
		cells: cells,
		report: func(r *Report, out []*results.Measurement) {
			var sustained float64
			for i, w := range windows {
				burst := windowThroughput(out[i], 0, 100*time.Millisecond)
				sustained = windowThroughput(out[i], 2*time.Second, window)
				r.row(fmt.Sprintf("window %5d: burst", w), burst, "ops/s", "first 100ms")
				r.row(fmt.Sprintf("window %5d: sustained", w), sustained, "ops/s", "2..4s")
			}
			r.finding("the window size scales the burst but the sustained rate stays "+
				"pinned at the MDS service rate (~%.0f ops/s) — client caching cannot "+
				"manufacture server capacity, only hide latency (§5.2.1)", sustained)
		},
	}
}

// Ablations lists the design-choice studies (run by cmd/experiments after
// the paper experiments).
func Ablations() []Experiment {
	return []Experiment{
		define(a01AveragingMethods),
		define(a02WritebackWindow),
	}
}
