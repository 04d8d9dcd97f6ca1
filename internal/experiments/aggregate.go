package experiments

import (
	"fmt"

	"dmetabench/internal/afs"
	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/nfs"
	"dmetabench/internal/ontapgx"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// e13Plan lists the Ontap GX sweep's (nodes, ppn) points in plan order.
var e13Plan = [][2]int{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {1, 4}, {2, 4}, {4, 4}, {8, 4}}

// e13NamespaceAggregation reproduces §4.7.1–4.7.2: on a clustered NFS
// server, requests for a volume owned by the mount filer run at full
// speed while forwarded requests pay the cluster-interconnect penalty;
// with per-node volumes the cluster scales with the number of filers,
// while a single hot volume is limited by its owner.
func e13NamespaceAggregation() spec[e13cell] {
	const filers = 8

	// Part (a) cell: single client, local vs. remote volume, on its own
	// probe kernel.
	probeLocalRemote := func() (c e13cell, err error) {
		k := sim.New(1313)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := ontapgx.New(k, "gx", filers, ontapgx.DefaultConfig())
		for i := 0; i < filers; i++ {
			fsys.AddVolume(fmt.Sprintf("vol%d", i), i)
		}
		fsys.MountThrough(cl.Nodes[0], 0)
		err = runProc(k, "probe", func(p *sim.Proc) error {
			gc := fsys.NewClient(cl.Nodes[0], p)
			rate := func(dir string) (float64, error) {
				if err := core.MkdirAll(gc, dir); err != nil {
					return 0, err
				}
				start := p.Now()
				const n = 500
				for i := 0; i < n; i++ {
					if err := gc.Create(fmt.Sprintf("%s/%d", dir, i)); err != nil {
						return 0, err
					}
				}
				return n / (p.Now() - start).Seconds(), nil
			}
			var err error
			if c.local, err = rate("/vol0/bench"); err != nil { // owned by the mount filer
				return err
			}
			c.remote, err = rate("/vol3/bench") // owned by filer 3: forwarded
			return err
		})
		c.forwards = fsys.ForwardCount
		return c, err
	}

	// Part (b): multi-node scaling, per-node local volumes vs one shared
	// volume — one cell per (nodes, ppn) sweep point, every node mounted
	// through its own filer.
	scale := func(seed int64, oneVolume bool) measure[*ontapgx.FS] {
		var paths []string
		for i := 0; i < filers; i++ {
			if oneVolume {
				paths = append(paths, "/vol0")
			} else {
				paths = append(paths, fmt.Sprintf("/vol%d", i))
			}
		}
		return measure[*ontapgx.FS]{seed: seed, size: filers,
			fs: func(k *sim.Kernel, cl *cluster.Cluster) *ontapgx.FS {
				fsys := ontapgx.New(k, "gx", filers, ontapgx.DefaultConfig())
				for i := 0; i < filers; i++ {
					fsys.AddVolume(fmt.Sprintf("vol%d", i), i)
					fsys.MountThrough(cl.Nodes[i], i)
				}
				return fsys
			},
			plugins: []core.Plugin{core.MakeFiles{}},
			params:  core.Params{ProblemSize: 1200, PathList: paths, WorkDir: "/vol0"}}
	}
	cells := []cell[e13cell]{{"local-vs-remote", probeLocalRemote}}
	for _, c := range append(scale(1314, false).sweep("per-node-volumes", e13Plan),
		scale(1315, true).sweep("one-volume", e13Plan)...) {
		cells = append(cells, cell[e13cell]{c.name, func() (e13cell, error) {
			m, err := c.run()
			return e13cell{m: m}, err
		}})
	}
	return spec[e13cell]{
		id: "E13", title: "Ontap GX: volume placement and forwarding", ref: "§4.7.1-4.7.2",
		cells: cells,
		report: func(r *Report, out []e13cell) {
			a := out[0]
			r.row("creates/s in local volume", a.local, "ops/s", "volume on mount filer")
			r.row("creates/s in forwarded volume", a.remote, "ops/s", "via cluster interconnect")
			r.row("remote efficiency", 100*a.remote/a.local, "%", "[ECK+07] claims ~75%")
			r.row("forwarded requests", float64(a.forwards), "", "")
			r.finding("paper/[ECK+07]: forwarding costs ~25%%; here remote volume "+
				"runs at %.0f%% of local", 100*a.remote/a.local)

			perVol, oneVol := &results.Set{}, &results.Set{}
			for i, c := range out[1:] {
				set := perVol
				if i >= len(e13Plan) {
					set = oneVol
				}
				set.Add(c.m)
			}
			for _, n := range []int{1, 4, 8} {
				r.row(fmt.Sprintf("per-node volumes @ %d nodes x1", n), stoneOf(perVol, "MakeFiles", n, 1), "ops/s", "")
				r.row(fmt.Sprintf("single volume @ %d nodes x1", n), stoneOf(oneVol, "MakeFiles", n, 1), "ops/s", "")
			}
			r.row("per-node volumes @ 8 nodes x4", stoneOf(perVol, "MakeFiles", 8, 4), "ops/s", "32 procs, all local")
			r.row("single volume @ 8 nodes x4", stoneOf(oneVol, "MakeFiles", 8, 4), "ops/s", "32 procs on one D-blade")
			p1 := stoneOf(perVol, "MakeFiles", 1, 1)
			p8 := stoneOf(perVol, "MakeFiles", 8, 4)
			o8 := stoneOf(oneVol, "MakeFiles", 8, 4)
			r.finding("paper: distributing load across volumes/filers scales while one "+
				"volume is bounded by its owner; here per-node volumes reach %.1fx the "+
				"single-node rate at 8x4 while one hot volume reaches only %.1fx "+
				"(owner-filer bound)", p8/p1, o8/p1)
			r.Charts = append(r.Charts, charts.VsNodes([]charts.LabeledSeries{
				{Label: "MakeFiles, one volume per node (local)", Points: perVol.ScaleSeries("MakeFiles")},
				{Label: "MakeFiles, all nodes in one volume", Points: oneVol.ScaleSeries("MakeFiles")},
			}, 1, chartW, chartH))
		},
	}
}

// e13cell is one E13 cell: the local-vs-remote probe's rates, or one
// sweep point's measurement.
type e13cell struct {
	local, remote float64
	forwards      int64
	m             *results.Measurement
}

// e14AFS reproduces §4.7.3: AFS serves cached attribute reads from its
// persistent client cache — even after drop_caches — while cross-node
// reads and namespace modifications pay full server round trips.
func e14AFS() spec[e14cell] {
	const problem = 800
	// Six cells: four AFS runs on a 4-node cluster with a 2-server AFS
	// cell and one volume per node, plus the two NFS contrast probes.
	var paths []string
	for i := 0; i < 4; i++ {
		paths = append(paths, fmt.Sprintf("/vol%d", i))
	}
	afsCell := func(k *sim.Kernel, _ *cluster.Cluster) *afs.FS {
		cell := afs.New(k, "cell", 2, afs.DefaultConfig())
		for i := 0; i < 4; i++ {
			cell.AddVolume(fmt.Sprintf("vol%d", i), -1)
		}
		return cell
	}
	var cells []cell[e14cell]
	for i, a := range []struct {
		name           string
		plugin         core.Plugin
		nodes, problem int
	}{
		{"afs-warm", core.StatFiles{}, 1, problem},
		{"afs-nocache", core.StatNocacheFiles{}, 1, problem},
		{"afs-multinode", core.StatMultinodeFiles{}, 2, problem},
		{"afs-creates", core.MakeFiles{}, 4, 600},
	} {
		m := measure[*afs.FS]{seed: int64(1401 + i), size: 4, nodes: a.nodes, ppn: 1,
			fs: afsCell, plugins: []core.Plugin{a.plugin},
			params: core.Params{ProblemSize: a.problem, PathList: paths, WorkDir: "/vol0"}}
		cells = append(cells, read(a.name, m, func(m *results.Measurement, cell *afs.FS) e14cell {
			hits, misses := cell.CacheStats()
			return e14cell{rate(m), hits, misses}
		}))
	}
	for i, n := range []struct {
		name   string
		plugin core.Plugin
	}{{"nfs-warm", core.StatFiles{}}, {"nfs-nocache", core.StatNocacheFiles{}}} {
		m := measure[*nfs.FS]{seed: int64(1405 + i), nodes: 1, ppn: 1, fs: nfsFS(nfs.DefaultConfig()),
			plugins: []core.Plugin{n.plugin}, params: core.Params{ProblemSize: problem, WorkDir: "/bench"}}
		cells = append(cells, read(n.name, m, func(m *results.Measurement, _ *nfs.FS) e14cell {
			return e14cell{rate: rate(m)}
		}))
	}
	return spec[e14cell]{
		id: "E14", title: "AFS: persistent cache and volume-grain service", ref: "§4.7.3",
		cells: cells,
		report: func(r *Report, out []e14cell) {
			aWarm, aNo, aMulti, aCreate := out[0].rate, out[1].rate, out[2].rate, out[3].rate
			// NFS contrast: dropping caches forces RPCs.
			nfsWarm, nfsNoCache := out[4].rate, out[5].rate
			hits, misses := out[1].hits, out[1].misses
			r.row("AFS StatFiles (warm cache)", aWarm, "ops/s", "")
			r.row("AFS StatNocacheFiles", aNo, "ops/s", "persistent cache survives drop_caches")
			r.row("AFS StatMultinodeFiles", aMulti, "ops/s", "peer files: server FetchStatus")
			r.row("AFS MakeFiles 4x1", aCreate, "ops/s", "")
			r.row("NFS StatFiles (warm cache)", nfsWarm, "ops/s", "")
			r.row("NFS StatNocacheFiles", nfsNoCache, "ops/s", "drop_caches forces GETATTR")
			r.row("AFS cache hits", float64(hits), "", "")
			r.row("AFS cache misses", float64(misses), "", "")
			r.finding("paper: AFS's disk cache is unaffected by the Linux cache drop, so "+
				"StatNocacheFiles stays near the warm rate (here %.1f%%) while NFS falls "+
				"to %.1f%% of warm; cross-node stats drop to %.1f%% on AFS",
				100*aNo/aWarm, 100*nfsNoCache/nfsWarm, 100*aMulti/aWarm)
		},
	}
}

// e14cell is one E14 run: its throughput and, for AFS, the cell's
// client-cache counters.
type e14cell struct {
	rate         float64
	hits, misses int64
}
