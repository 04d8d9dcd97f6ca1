package experiments

import (
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/results"
)

// e15WritebackCaching reproduces §4.8: with a client-side metadata
// write-back cache, creates are acknowledged at client memory speed until
// the write-back window fills; the sustained rate then converges to the
// metadata server's service rate, and the burst is clearly visible in the
// time-interval log.
func e15WritebackCaching() spec[*results.Measurement] {
	const window = 8 * time.Second
	cfg := lustre.DefaultConfig()
	cfg.Writeback = true
	cfg.WritebackWindow = 4096
	wb := measure[*lustre.FS]{seed: 1501, nodes: 1, ppn: 1, fs: lustreFS(cfg),
		plugins: []core.Plugin{core.MakeFiles{}},
		params: core.Params{
			ProblemSize: 50000, // one directory; no rotation inside the window
			TimeLimit:   window,
			WorkDir:     "/bench",
		}}
	// Synchronous reference: the same hardware without write-back.
	sync := measure[*lustre.FS]{seed: 1502, nodes: 1, ppn: 1, fs: lustreFS(lustre.DefaultConfig()),
		plugins: []core.Plugin{core.MakeFiles{}},
		params:  core.Params{ProblemSize: 800, WorkDir: "/bench"}}
	return spec[*results.Measurement]{
		id: "E15", title: "Write-back caching of metadata", ref: "§4.8",
		cells: []cell[*results.Measurement]{wb.cell("writeback"), sync.cell("sync-ref")},
		report: func(r *Report, out []*results.Measurement) {
			m, syncRate := out[0], out[1].Averages().WallClock
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
		},
	}
}
