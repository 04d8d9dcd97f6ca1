package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
)

// e12Latencies are the one-way network delays of the sweep.
var e12Latencies = []time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
}

// e12LatencySweep reproduces §4.6: synchronous metadata operations
// degrade with network latency roughly as 1/RTT, while operations served
// from client caches — and creates under a metadata write-back cache —
// are almost latency-independent.
func e12LatencySweep() spec[*results.Measurement] {
	// Three single-process cells per latency point — 15 in all, each on
	// its own kernel with its own seed. The write-back cell is timed: a
	// run that long amortizes per-run constants, like the one
	// synchronous mkdir at bench start, that would otherwise dominate
	// its fast cached creates.
	var cells []cell[*results.Measurement]
	for i, lat := range e12Latencies {
		rtt := (2 * lat).Seconds() * 1000
		seed := int64(1200 + 10*i)
		nfsCfg := nfs.DefaultConfig()
		nfsCfg.OneWayLatency = lat
		wbCfg := lustre.DefaultConfig()
		wbCfg.OneWayLatency = lat
		wbCfg.Writeback = true
		create := measure[*nfs.FS]{seed: seed, nodes: 1, ppn: 1, fs: nfsFS(nfsCfg),
			plugins: []core.Plugin{core.MakeFiles{}},
			params:  core.Params{ProblemSize: 500, WorkDir: "/bench"}}
		statnc := create
		statnc.seed, statnc.plugins = seed+1, []core.Plugin{core.StatNocacheFiles{}}
		wb := measure[*lustre.FS]{seed: seed + 2, nodes: 1, ppn: 1, fs: lustreFS(wbCfg),
			plugins: []core.Plugin{core.MakeFiles{}},
			params: core.Params{
				ProblemSize: 1 << 20, // no subdirectory rotation inside the window
				TimeLimit:   time.Second,
				WorkDir:     "/bench",
			}}
		cells = append(cells,
			create.cell(fmt.Sprintf("rtt%.1fms-nfs-create", rtt)),
			statnc.cell(fmt.Sprintf("rtt%.1fms-nfs-statnc", rtt)),
			wb.cell(fmt.Sprintf("rtt%.1fms-wb-create", rtt)))
	}
	return spec[*results.Measurement]{
		id: "E12", title: "Metadata throughput vs. network latency", ref: "§4.6",
		cells: cells,
		report: func(r *Report, out []*results.Measurement) {
			var xs, nfsCreate, nfsStatNC, wbCreate []float64
			for i, lat := range e12Latencies {
				rtt := (2 * lat).Seconds() * 1000
				// Wall-clock throughput: robust for sub-interval runs.
				c := out[3*i].Averages().WallClock
				s := out[3*i+1].Averages().WallClock
				w := out[3*i+2].Averages().WallClock
				xs = append(xs, rtt) // RTT in ms
				nfsCreate = append(nfsCreate, c)
				nfsStatNC = append(nfsStatNC, s)
				wbCreate = append(wbCreate, w)
				r.row(fmt.Sprintf("RTT %.1fms: NFS creates", rtt), c, "ops/s", "")
				r.row(fmt.Sprintf("RTT %.1fms: NFS stat (no cache)", rtt), s, "ops/s", "")
				r.row(fmt.Sprintf("RTT %.1fms: write-back creates", rtt), w, "ops/s", "")
			}
			nfsDrop := nfsCreate[0] / nfsCreate[len(nfsCreate)-1]
			wbDrop := wbCreate[0] / wbCreate[len(wbCreate)-1]
			r.finding("paper: synchronous metadata rates fall with added latency "+
				"while caching hides it; here 50x more RTT costs NFS creates %.1fx "+
				"and write-back creates only %.1fx", nfsDrop, wbDrop)
			r.Charts = append(r.Charts, charts.Render(
				"Throughput vs network RTT", "RTT ms", "ops/s", chartW, chartH,
				[]charts.Series{
					{Name: "NFS MakeFiles (synchronous)", X: xs, Y: nfsCreate},
					{Name: "NFS StatNocacheFiles", X: xs, Y: nfsStatNC},
					{Name: "Lustre write-back MakeFiles", X: xs, Y: wbCreate},
				}))
		},
	}
}
