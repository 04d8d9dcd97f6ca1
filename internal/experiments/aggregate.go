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

// E13NamespaceAggregation reproduces §4.7.1–4.7.2: on a clustered NFS
// server, requests for a volume owned by the mount filer run at full
// speed while forwarded requests pay the cluster-interconnect penalty;
// with per-node volumes the cluster scales with the number of filers,
// while a single hot volume is limited by its owner.
func E13NamespaceAggregation() *Report {
	r := &Report{ID: "E13", Title: "Ontap GX: volume placement and forwarding",
		PaperRef: "§4.7.1-4.7.2"}
	const filers = 8

	// Part (a) cell: single client, local vs. remote volume, on its own
	// probe kernel.
	type e13a struct {
		local, remote float64
		forwards      int64
	}
	probeLocalRemote := func() (e13a, error) {
		k := sim.New(1313)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := ontapgx.New(k, "gx", filers, ontapgx.DefaultConfig())
		for i := 0; i < filers; i++ {
			fsys.AddVolume(fmt.Sprintf("vol%d", i), i)
		}
		fsys.MountThrough(cl.Nodes[0], 0)
		var a e13a
		err := runProc(k, "probe", func(p *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], p)
			rate := func(dir string) (float64, error) {
				if err := core.MkdirAll(c, dir); err != nil {
					return 0, err
				}
				start := p.Now()
				const n = 500
				for i := 0; i < n; i++ {
					if err := c.Create(fmt.Sprintf("%s/%d", dir, i)); err != nil {
						return 0, err
					}
				}
				return n / (p.Now() - start).Seconds(), nil
			}
			var err error
			if a.local, err = rate("/vol0/bench"); err != nil { // owned by the mount filer
				return err
			}
			a.remote, err = rate("/vol3/bench") // owned by filer 3: forwarded
			return err
		})
		a.forwards = fsys.ForwardCount
		return a, err
	}

	// Part (b): multi-node scaling, per-node local volumes vs one shared
	// volume — one ParallelRunner cell per (nodes, ppn) sweep point.
	scale := func(oneVolume bool, seed int64, label string) (*results.Set, error) {
		pr := &core.ParallelRunner{
			New: func(k *sim.Kernel) *core.Runner {
				cl := cluster.New(k, cluster.DefaultConfig(filers))
				fsys := ontapgx.New(k, "gx", filers, ontapgx.DefaultConfig())
				var paths []string
				for i := 0; i < filers; i++ {
					fsys.AddVolume(fmt.Sprintf("vol%d", i), i)
					fsys.MountThrough(cl.Nodes[i], i)
					if oneVolume {
						paths = append(paths, "/vol0")
					} else {
						paths = append(paths, fmt.Sprintf("/vol%d", i))
					}
				}
				return &core.Runner{
					Cluster:      cl,
					FS:           fsys,
					Params:       core.Params{ProblemSize: 1200, PathList: paths, WorkDir: "/vol0"},
					SlotsPerNode: 4,
					Plugins:      []core.Plugin{core.MakeFiles{}},
					Filter: func(c core.Combo) bool {
						okNodes := c.Nodes == 1 || c.Nodes == 2 || c.Nodes == 4 || c.Nodes == filers
						return okNodes && (c.PPN == 1 || c.PPN == 4)
					},
				}
			},
			Seed:  seed,
			Label: label,
		}
		return runSet(pr)
	}

	// Three top-level cells (the probe plus two nested 8-cell sweeps).
	type e13cell struct {
		a   e13a
		set *results.Set
	}
	cells, err := parCells("E13", []string{"local-vs-remote", "per-node-volumes", "one-volume"},
		func(i int) (c e13cell, err error) {
			switch i {
			case 0:
				c.a, err = probeLocalRemote()
			case 1:
				c.set, err = scale(false, 1314, "E13/per-node-volumes")
			default:
				c.set, err = scale(true, 1315, "E13/one-volume")
			}
			return c, err
		})
	if err != nil {
		return r.fail(err)
	}
	a := cells[0].a
	r.row("creates/s in local volume", a.local, "ops/s", "volume on mount filer")
	r.row("creates/s in forwarded volume", a.remote, "ops/s", "via cluster interconnect")
	r.row("remote efficiency", 100*a.remote/a.local, "%", "[ECK+07] claims ~75%")
	r.row("forwarded requests", float64(a.forwards), "", "")
	r.finding("paper/[ECK+07]: forwarding costs ~25%%; here remote volume "+
		"runs at %.0f%% of local", 100*a.remote/a.local)

	perVol, oneVol := cells[1].set, cells[2].set
	r.Sets = append(r.Sets, perVol, oneVol)
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
	return r
}

// afsEnv builds a 4-node cluster with a 2-server AFS cell and one volume
// per node.
func afsEnv(seed int64) (*sim.Kernel, *cluster.Cluster, *afs.FS, []string) {
	k := sim.New(seed)
	cl := cluster.New(k, cluster.DefaultConfig(4))
	cell := afs.New(k, "cell", 2, afs.DefaultConfig())
	var paths []string
	for i := 0; i < 4; i++ {
		cell.AddVolume(fmt.Sprintf("vol%d", i), -1)
		paths = append(paths, fmt.Sprintf("/vol%d", i))
	}
	return k, cl, cell, paths
}

func afsRun(plugin core.Plugin, nodes, problem int, seed int64) (*results.Set, *afs.FS, error) {
	_, cl, cell, paths := afsEnv(seed)
	r := &core.Runner{
		Cluster:      cl,
		FS:           cell,
		Params:       core.Params{ProblemSize: problem, PathList: paths, WorkDir: "/vol0"},
		SlotsPerNode: 1,
		Plugins:      []core.Plugin{plugin},
		Filter:       func(c core.Combo) bool { return c.Nodes == nodes && c.PPN == 1 },
	}
	set, err := runSet(r)
	return set, cell, err
}

// E14AFS reproduces §4.7.3: AFS serves cached attribute reads from its
// persistent client cache — even after drop_caches — while cross-node
// reads and namespace modifications pay full server round trips.
func E14AFS() *Report {
	r := &Report{ID: "E14", Title: "AFS: persistent cache and volume-grain service",
		PaperRef: "§4.7.3"}
	const problem = 800

	// Six cells: four AFS runs plus the two NFS contrast probes, each on
	// its own kernel with the serial loop's seeds.
	type e14cell struct {
		set  *results.Set
		cell *afs.FS
		rate float64
	}
	afsRuns := []struct {
		plugin         core.Plugin
		nodes, problem int
	}{
		{core.StatFiles{}, 1, problem},
		{core.StatNocacheFiles{}, 1, problem},
		{core.StatMultinodeFiles{}, 2, problem},
		{core.MakeFiles{}, 4, 600},
	}
	nfsProbes := []core.Plugin{core.StatFiles{}, core.StatNocacheFiles{}}
	cells, err := parCells("E14", []string{"afs-warm", "afs-nocache", "afs-multinode",
		"afs-creates", "nfs-warm", "nfs-nocache"}, func(i int) (c e14cell, err error) {
		seed := int64(1401 + i)
		if i < len(afsRuns) {
			a := afsRuns[i]
			c.set, c.cell, err = afsRun(a.plugin, a.nodes, a.problem, seed)
			return c, err
		}
		c.rate, err = singleProcWall(func(k *sim.Kernel) core.FileSystem {
			return newNFSFS(k, "home", nfs.DefaultConfig())
		}, nfsProbes[i-len(afsRuns)], core.Params{ProblemSize: problem}, seed)
		return c, err
	})
	if err != nil {
		return r.fail(err)
	}
	warm, nocache, multi, creates := cells[0].set, cells[1].set, cells[2].set, cells[3].set
	cell := cells[1].cell
	r.Sets = append(r.Sets, warm, nocache, multi, creates)

	// NFS contrast: dropping caches forces RPCs.
	nfsWarm, nfsNoCache := cells[4].rate, cells[5].rate

	aWarm := wallOf(warm, "StatFiles", 1, 1)
	aNo := wallOf(nocache, "StatNocacheFiles", 1, 1)
	aMulti := wallOf(multi, "StatMultinodeFiles", 2, 1)
	aCreate := wallOf(creates, "MakeFiles", 4, 1)
	hits, misses := cell.CacheStats()
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
	return r
}
