package experiments

import (
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// E15WritebackCaching reproduces §4.8: with a client-side metadata
// write-back cache, creates are acknowledged at client memory speed until
// the write-back window fills; the sustained rate then converges to the
// metadata server's service rate, and the burst is clearly visible in the
// time-interval log.
func E15WritebackCaching() *Report {
	r := &Report{ID: "E15", Title: "Write-back caching of metadata",
		PaperRef: "§4.8"}
	const window = 8 * time.Second

	cfg := lustre.DefaultConfig()
	cfg.Writeback = true
	cfg.WritebackWindow = 4096

	// Two cells: the write-back run and its synchronous reference.
	type e15cell struct {
		set  *results.Set
		rate float64
	}
	cells, err := parCells("E15", []string{"writeback", "sync-ref"}, func(i int) (e15cell, error) {
		if i == 1 {
			// Synchronous reference: the same hardware without write-back.
			rate, err := singleProcWall(func(k *sim.Kernel) core.FileSystem {
				return newLustreFS(k, "scratch", lustre.DefaultConfig())
			}, core.MakeFiles{}, core.Params{ProblemSize: 800}, 1502)
			return e15cell{rate: rate}, err
		}
		k := sim.New(1501)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		run := &core.Runner{
			Cluster: cl,
			FS:      newLustreFS(k, "scratch", cfg),
			Params: core.Params{
				ProblemSize: 50000, // one directory; no rotation inside the window
				TimeLimit:   window,
				WorkDir:     "/bench",
			},
			SlotsPerNode: 1,
			Plugins:      []core.Plugin{core.MakeFiles{}},
		}
		set, err := runSet(run)
		return e15cell{set: set}, err
	})
	if err != nil {
		return r.fail(err)
	}
	set, syncRate := cells[0].set, cells[1].rate
	r.Sets = append(r.Sets, set)
	m := set.Find("MakeFiles", 1, 1)
	burst := windowThroughput(m, 0, 200*time.Millisecond)
	sustained := windowThroughput(m, 4*time.Second, window)

	r.row("burst rate (first 200ms)", burst, "ops/s", "window filling at client speed")
	r.row("sustained rate (4..8s)", sustained, "ops/s", "metadata server drain rate")
	r.row("synchronous create rate", syncRate, "ops/s", "same system, no write-back")
	r.row("burst / sustained", burst/sustained, "x", "")
	r.row("write-back window", float64(cfg.WritebackWindow), "ops", "")
	r.finding("paper: Lustre acknowledges metadata changes from the client cache "+
		"until the server commits them; here the burst runs %.0fx above the "+
		"sustained rate, and sustained (%.0f ops/s) sits at the synchronous "+
		"server rate (%.0f ops/s)", burst/sustained, sustained, syncRate)
	r.Charts = append(r.Charts, charts.TimeChart(m, chartW, chartH))
	return r
}
