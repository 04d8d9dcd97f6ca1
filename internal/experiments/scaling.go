package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/namespace"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// e07Plan lists the create-scaling sweep's (nodes, ppn) points in plan
// order: one process per node up to 16 nodes, then 2 and 4 per node.
var e07Plan = [][2]int{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {12, 1}, {16, 1}, {16, 2}, {16, 4}}

// e07CreateScaling reproduces §4.3.2: file creation scaling of NFS vs
// Lustre over node counts. The filer wins on absolute rate; both settle
// at their server-side saturation point.
func e07CreateScaling() spec[*results.Measurement] {
	// One cell per sweep point and file system, each on a fresh kernel
	// seeded per file system, so sweep points are independent.
	params := core.Params{ProblemSize: 2000, WorkDir: "/bench"}
	plugins := []core.Plugin{core.MakeFiles{}}
	nfsCells := measure[*nfs.FS]{seed: 707, size: 16, fs: nfsFS(nfs.DefaultConfig()),
		plugins: plugins, params: params}.sweep("nfs", e07Plan)
	lusCells := measure[*lustre.FS]{seed: 708, size: 16, fs: lustreFS(lustre.DefaultConfig()),
		plugins: plugins, params: params}.sweep("lustre", e07Plan)
	return spec[*results.Measurement]{
		id: "E07", title: "NFS vs Lustre file creation scaling", ref: "§4.3.2",
		cells: append(nfsCells, lusCells...),
		report: func(r *Report, out []*results.Measurement) {
			nfsSet := &results.Set{Measurements: out[:len(e07Plan)]}
			lusSet := &results.Set{Measurements: out[len(e07Plan):]}
			for _, n := range []int{1, 4, 16} {
				r.row(fmt.Sprintf("NFS creates/s @ %d nodes x1", n), stoneOf(nfsSet, "MakeFiles", n, 1), "ops/s", "")
				r.row(fmt.Sprintf("Lustre creates/s @ %d nodes x1", n), stoneOf(lusSet, "MakeFiles", n, 1), "ops/s", "")
			}
			r.row("NFS creates/s @ 16 nodes x4", stoneOf(nfsSet, "MakeFiles", 16, 4), "ops/s", "64 procs")
			r.row("Lustre creates/s @ 16 nodes x4", stoneOf(lusSet, "MakeFiles", 16, 4), "ops/s", "64 procs")
			n1, n16 := stoneOf(nfsSet, "MakeFiles", 1, 1), stoneOf(nfsSet, "MakeFiles", 16, 1)
			l1, l16 := stoneOf(lusSet, "MakeFiles", 1, 1), stoneOf(lusSet, "MakeFiles", 16, 1)
			r.finding("paper: the NFS filer outperforms the Lustre MDS on small-file "+
				"creation at every node count; here NFS %.0f->%.0f ops/s and Lustre "+
				"%.0f->%.0f ops/s from 1 to 16 nodes (NFS lead %.1fx at saturation)",
				n1, n16, l1, l16, n16/l16)
			r.Charts = append(r.Charts, charts.VsNodes([]charts.LabeledSeries{
				{Label: "MakeFiles on NFS", Points: nfsSet.ScaleSeries("MakeFiles")},
				{Label: "MakeFiles on Lustre", Points: lusSet.ScaleSeries("MakeFiles")},
			}, 1, chartW, chartH))
		},
	}
}

// prefillRate measures the single-process create rate into a directory
// pre-filled (at zero simulated cost) with prefill entries.
func prefillRate(mk func(k *sim.Kernel) interface {
	core.FileSystem
	Namespace() *namespace.Namespace
}, prefill, probe int) (float64, error) {
	k := sim.New(int64(9000 + prefill))
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := mk(k)
	ns := fsys.Namespace()
	if _, err := ns.Mkdir("/big", 0o755, 0); err != nil {
		return 0, err
	}
	for i := 0; i < prefill; i++ {
		if _, err := ns.Create(fmt.Sprintf("/big/pre%d", i), 0o644, 0); err != nil {
			return 0, err
		}
	}
	var rate float64
	err := runProc(k, "probe", func(p *sim.Proc) error {
		c := fsys.NewClient(cl.Nodes[0], p)
		start := p.Now()
		for i := 0; i < probe; i++ {
			if err := c.Create(fmt.Sprintf("/big/new%d", i)); err != nil {
				return err
			}
		}
		rate = float64(probe) / (p.Now() - start).Seconds()
		return nil
	})
	return rate, err
}

// e08LargeDirectories reproduces §4.3.3: sequential create rates degrade
// with directory size according to the server's directory index, and
// parallel creates into one shared directory serialize while per-process
// directories scale.
func e08LargeDirectories() spec[float64] {
	sizes := []int{1000, 10000, 100000}
	const probe = 300

	type variant struct {
		name string
		mk   func(k *sim.Kernel) interface {
			core.FileSystem
			Namespace() *namespace.Namespace
		}
	}
	variants := []variant{
		{"NFS/WAFL (hash dirs)", func(k *sim.Kernel) interface {
			core.FileSystem
			Namespace() *namespace.Namespace
		} {
			return newNFSFS(k, "home", nfs.DefaultConfig())
		}},
		{"NFS (linear dirs)", func(k *sim.Kernel) interface {
			core.FileSystem
			Namespace() *namespace.Namespace
		} {
			cfg := nfs.DefaultConfig()
			cfg.DirIndex = namespace.IndexLinear
			return newNFSFS(k, "home", cfg)
		}},
		{"Lustre (htree dirs)", func(k *sim.Kernel) interface {
			core.FileSystem
			Namespace() *namespace.Namespace
		} {
			return newLustreFS(k, "scratch", lustre.DefaultConfig())
		}},
	}
	// One cell per (variant, size) prefill probe.
	var cells []cell[float64]
	for _, v := range variants {
		for _, size := range sizes {
			cells = append(cells, cell[float64]{fmt.Sprintf("%s@%d", v.name, size),
				func() (float64, error) { return prefillRate(v.mk, size, probe) }})
		}
	}
	// Parallel part: shared directory vs per-process directories on
	// Lustre, 8 nodes x 1 process, 1000 creates per process.
	stonewall := func(name string, plugin core.Plugin, problem int) cell[float64] {
		m := measure[*lustre.FS]{seed: 881, nodes: 8, ppn: 1, fs: lustreFS(lustre.DefaultConfig()),
			plugins: []core.Plugin{plugin}, params: core.Params{ProblemSize: problem, WorkDir: "/bench"}}
		return read(name, m, func(m *results.Measurement, _ *lustre.FS) float64 {
			return m.Averages().Stonewall
		})
	}
	cells = append(cells,
		stonewall("shared-dir", core.MakeOnedirFiles{}, 8000),
		stonewall("own-dirs", core.MakeFiles{}, 1000))
	return spec[float64]{
		id: "E08", title: "Creates in large directories, sequential and parallel", ref: "§4.3.3",
		cells: cells,
		report: func(r *Report, vals []float64) {
			rates := make(map[string][]float64)
			for vi, v := range variants {
				for si, s := range sizes {
					rate := vals[vi*len(sizes)+si]
					rates[v.name] = append(rates[v.name], rate)
					r.row(fmt.Sprintf("%s @ %d entries", v.name, s), rate, "ops/s", "")
				}
			}
			lin := rates["NFS (linear dirs)"]
			hash := rates["NFS/WAFL (hash dirs)"]
			r.finding("paper: hashed/tree directory indexes keep large directories "+
				"usable while linear scans collapse; here the linear variant loses "+
				"%.0fx from 1k to 100k entries while the hash variant loses %.1f%%",
				lin[0]/lin[2], 100*(1-hash[2]/hash[0]))

			shared, own := vals[len(vals)-2], vals[len(vals)-1]
			r.row("Lustre 8x1, one shared directory", shared, "ops/s", "MakeOnedirFiles")
			r.row("Lustre 8x1, per-process directories", own, "ops/s", "MakeFiles")
			r.finding("paper: parallel creates in one directory serialize on the "+
				"directory lock; here per-process directories are %.1fx faster", own/shared)
		},
	}
}

// e09AllocationBursts reproduces §4.3.4: internal allocation processes
// (modelled as Lustre OSS object pre-allocation refills) appear as
// periodic throughput dips in the time-interval log — invisible in any
// summary average.
func e09AllocationBursts() spec[e09cell] {
	cfg := lustre.DefaultConfig()
	cfg.NumOSS = 2
	cfg.PreallocBatch = 256
	cfg.OSSRefillService = 40 * time.Millisecond
	m := measure[*lustre.FS]{seed: 909, nodes: 1, ppn: 1, fs: lustreFS(cfg),
		plugins: []core.Plugin{core.MakeFiles{}},
		params:  core.Params{ProblemSize: 3000, WorkDir: "/bench"}}
	return spec[e09cell]{
		id: "E09", title: "Internal allocation bursts in the time log", ref: "§4.3.4",
		cells: []cell[e09cell]{read("makefiles", m, func(m *results.Measurement, fsys *lustre.FS) e09cell {
			return e09cell{m, fsys.RefillCount}
		})},
		report: func(r *Report, out []e09cell) {
			m, refills := out[0].m, out[0].refills
			var sum, min float64
			min = 1e18
			var n int
			for _, row := range m.Summary() {
				if row.Throughput <= 0 {
					continue
				}
				sum += row.Throughput
				if row.Throughput < min {
					min = row.Throughput
				}
				n++
			}
			mean := sum / float64(n)
			r.row("OSS pre-allocation refills", float64(refills), "", "batch=256, 2 OSTs")
			r.row("mean interval throughput", mean, "ops/s", "")
			r.row("min interval throughput", min, "ops/s", "interval hit by a refill stall")
			r.row("dip depth", 100*(1-min/mean), "%", "")
			r.finding("paper: allocation activity is invisible in averages but shows as "+
				"periodic dips in the time log; here %d refills cause intervals %.0f%% "+
				"below the mean", refills, 100*(1-min/mean))
			r.Charts = append(r.Charts, charts.TimeChart(m, chartW, chartH))
		},
	}
}

// e09cell is the E09 run: its measurement and the OSS refill count.
type e09cell struct {
	m       *results.Measurement
	refills int
}
