package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// The E16–E18 family leaves the single-MDS world of the thesis: the
// namespace is partitioned across N simulated metadata servers
// (internal/shard), the scaling step HopsFS and MetaFlow report
// order-of-magnitude gains from. The experiments measure when sharding
// pays (E16), how placement policy interacts with popularity skew
// (E17), and what an operation that spans two shards costs (E18).

// e16Workload is the steady-state create/mkdir mix used by the shard
// sweeps: uniform directory popularity, one mkdir per 50 creates so
// directory-mutation traffic (broadcast under hash placement) stays
// part of the load.
func e16Workload(skew float64) core.ZipfDirFiles {
	return core.ZipfDirFiles{Projects: 24, SubdirsPerProject: 32, Skew: skew, MkdirEvery: 50}
}

// e16SubtreeAssign pins the 24 project subtrees round-robin across n
// shards — the administrative volume placement of §4.7.2.
func e16SubtreeAssign(n int) map[string]int {
	m := make(map[string]int, 24)
	for j := 0; j < 24; j++ {
		m[fmt.Sprintf("zp%d", j)] = j % n
	}
	return m
}

// wide is the 16-node x 4-process shape of the shard sweeps: 64
// workers, enough demand to oversubscribe a small shard count.
func wide(seed int64, cfg shard.Config, plugin core.Plugin, problem int) measure[*shard.FS] {
	return measure[*shard.FS]{seed: seed, nodes: 16, ppn: 4, fs: shardFS(cfg),
		plugins: []core.Plugin{plugin}, params: core.Params{ProblemSize: problem, WorkDir: "/"}}
}

// e16ShardScaling sweeps the shard count 1→16 under a fixed 32-process
// create load: throughput scales while per-shard queueing dominates and
// flattens once the servers are no longer the bottleneck while every
// directory mutation still pays a broadcast that grows with the shard
// count.
func e16ShardScaling() spec[e16cell] {
	shardsSwept := []int{1, 2, 4, 8, 16}
	// One cell per shard count. One seed for every sweep point: the only
	// variable between cells is the shard count, not the storage service
	// jitter.
	var cells []cell[e16cell]
	for _, n := range shardsSwept {
		cells = append(cells, read(fmt.Sprintf("%dshards", n),
			wide(1600, shard.DefaultConfig(n), e16Workload(0), 500),
			func(m *results.Measurement, fsys *shard.FS) e16cell {
				return e16cell{rate(m), fsys.CrossCount}
			}))
	}
	return spec[e16cell]{
		id: "E16", title: "Shard-count scaling of create throughput",
		ref:   "beyond §4.3 (HopsFS/MetaFlow direction)",
		cells: cells,
		report: func(r *Report, out []e16cell) {
			var xs, rates []float64
			best := 0
			for i, n := range shardsSwept {
				rates = append(rates, out[i].rate)
				xs = append(xs, float64(n))
				r.row(fmt.Sprintf("creates/s @ %2d shards", n), rates[i], "ops/s",
					fmt.Sprintf("%d cross-shard hops", out[i].cross))
				if rates[i] > rates[best] {
					best = i
				}
			}
			last := len(shardsSwept) - 1
			r.row("speedup 1->16 shards", rates[last]/rates[0], "x", "64 procs")
			r.row("best shard count", float64(shardsSwept[best]), "shards", "")
			r.finding("related work: partitioned metadata scales until coordination "+
				"dominates; here creates/s grow %.1fx from 1 to %d shards, while "+
				"cross-shard hops grow %d -> %d and the curve flattens (best at %d shards)",
				rates[best]/rates[0], shardsSwept[best],
				out[0].cross, out[last].cross, shardsSwept[best])
			r.Charts = append(r.Charts, charts.Render(
				"Create throughput vs. shard count (64 processes)",
				"shards", "ops/s", chartW, chartH,
				[]charts.Series{{Name: "ZipfDirFiles uniform", X: xs, Y: rates}}))
		},
	}
}

// e16cell is one E16 run: creates/s and interconnect crossings.
type e16cell struct {
	rate  float64
	cross int64
}

// e17ShardSkew compares the two placement policies under uniform and
// Zipf-skewed directory popularity on 8 shards: hash placement spreads
// a hot project's directories across every server, subtree placement
// keeps whole projects local (no broadcast) but concentrates popular
// subtrees on one shard.
func e17ShardSkew() spec[e17cell] {
	const nShards = 8
	placed := func(name string, p shard.Policy, skew float64, seed int64) cell[e17cell] {
		cfg := shard.DefaultConfig(nShards)
		cfg.Placement = p
		if p == shard.PlaceSubtree {
			cfg.SubtreeAssign = e16SubtreeAssign(nShards)
		}
		return read(name, wide(seed, cfg, e16Workload(skew), 400),
			func(m *results.Measurement, fsys *shard.FS) e17cell {
				c := e17cell{rate: rate(m)}
				ops := fsys.ShardOps()
				var max, sum int64
				for _, n := range ops {
					sum += n
					if n > max {
						max = n
					}
				}
				if sum > 0 {
					c.imbalance = float64(max) * float64(len(ops)) / float64(sum)
				}
				return c
			})
	}
	return spec[e17cell]{
		id: "E17", title: "Hot-directory skew: hash vs. subtree placement",
		ref: "beyond §4.7 (placement under skew)",
		cells: []cell[e17cell]{
			placed("hash-uniform", shard.PlaceHashDir, 0, 1701),
			placed("subtree-uniform", shard.PlaceSubtree, 0, 1702),
			placed("hash-zipf", shard.PlaceHashDir, 2.0, 1703),
			placed("subtree-zipf", shard.PlaceSubtree, 2.0, 1704),
		},
		report: func(r *Report, out []e17cell) {
			hashU, subU, hashZ, subZ := out[0], out[1], out[2], out[3]
			r.row("hash placement, uniform", hashU.rate, "ops/s",
				fmt.Sprintf("hottest shard %.1fx mean", hashU.imbalance))
			r.row("subtree placement, uniform", subU.rate, "ops/s",
				fmt.Sprintf("hottest shard %.1fx mean", subU.imbalance))
			r.row("hash placement, Zipf 2.0", hashZ.rate, "ops/s",
				fmt.Sprintf("hottest shard %.1fx mean", hashZ.imbalance))
			r.row("subtree placement, Zipf 2.0", subZ.rate, "ops/s",
				fmt.Sprintf("hottest shard %.1fx mean", subZ.imbalance))
			r.row("hash advantage under skew", hashZ.rate/subZ.rate, "x", "")
			r.row("subtree advantage under uniform", subU.rate/hashU.rate, "x", "")
			r.finding("related work: hash partitioning absorbs popularity skew that "+
				"subtree placement concentrates (hottest shard %.1fx mean vs %.1fx); "+
				"here hash wins %.2fx under Zipf skew while subtree wins %.2fx under "+
				"uniform load by avoiding replicated directory mutations",
				hashZ.imbalance, subZ.imbalance,
				hashZ.rate/subZ.rate, subU.rate/hashU.rate)
		},
	}
}

// e17cell is one E17 run: creates/s and the hottest shard's op count
// over the mean.
type e17cell struct {
	rate, imbalance float64
}

// e18CrossShard prices a single operation that spans a shard boundary:
// a rename whose source and destination directories live on different
// shards migrates the file over the MDS interconnect, and a root
// listing under subtree placement merges every shard's top level.
func e18CrossShard() spec[e18probe] {
	const ops = 200

	// Rename cell: same-shard vs. cross-shard rename on hash placement.
	probeRename := func() (pr e18probe, err error) {
		k := sim.New(1801)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := newShardFS(k, "meta", shard.DefaultConfig(8))
		// Probe the routing for a same-shard and a cross-shard directory
		// pair before spawning any load.
		var local, remote string
		base := "/d0"
		for i := 1; i < 128 && (local == "" || remote == ""); i++ {
			cand := fmt.Sprintf("/d%d", i)
			if fsys.ShardOfDir(cand) == fsys.ShardOfDir(base) {
				if local == "" {
					local = cand
				}
			} else if remote == "" {
				remote = cand
			}
		}
		err = runProc(k, "probe", func(p *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], p)
			for _, d := range []string{base, local, remote} {
				if err := c.Mkdir(d); err != nil {
					return err
				}
			}
			for i := 0; i < ops; i++ {
				if err := c.Create(fmt.Sprintf("%s/f%d", base, i)); err != nil {
					return err
				}
			}
			start := p.Now()
			for i := 0; i < ops; i++ {
				if err := c.Rename(fmt.Sprintf("%s/f%d", base, i), fmt.Sprintf("%s/f%d", local, i)); err != nil {
					return err
				}
			}
			pr.base = (p.Now() - start) / ops
			start = p.Now()
			for i := 0; i < ops; i++ {
				if err := c.Rename(fmt.Sprintf("%s/f%d", local, i), fmt.Sprintf("%s/f%d", remote, i)); err != nil {
					return err
				}
			}
			pr.cost = (p.Now() - start) / ops
			return nil
		})
		pr.crossings = fsys.CrossCount
		return pr, err
	}

	// Readdir cell: root readdir under subtree placement merges all
	// shards; a subtree-local listing stays on one.
	probeReaddir := func() (rd e18probe, err error) {
		k2 := sim.New(1802)
		cl2 := cluster.New(k2, cluster.DefaultConfig(1))
		cfg := shard.DefaultConfig(8)
		cfg.Placement = shard.PlaceSubtree
		cfg.SubtreeAssign = e16SubtreeAssign(8)
		fsys2 := newShardFS(k2, "meta", cfg)
		err = runProc(k2, "readdir", func(p *sim.Proc) error {
			c := fsys2.NewClient(cl2.Nodes[0], p)
			for j := 0; j < 24; j++ {
				if err := c.Mkdir(fmt.Sprintf("/zp%d", j)); err != nil {
					return err
				}
			}
			for i := 0; i < 32; i++ {
				if err := c.Create(fmt.Sprintf("/zp0/f%d", i)); err != nil {
					return err
				}
			}
			start := p.Now()
			for i := 0; i < ops; i++ {
				if _, err := c.ReadDir("/"); err != nil {
					return err
				}
			}
			rd.cost = (p.Now() - start) / ops
			start = p.Now()
			for i := 0; i < ops; i++ {
				if _, err := c.ReadDir("/zp0"); err != nil {
					return err
				}
			}
			rd.base = (p.Now() - start) / ops
			return nil
		})
		return rd, err
	}

	return spec[e18probe]{
		id: "E18", title: "Cross-shard operation cost", ref: "beyond §4.6 (MDS interconnect hops)",
		cells: []cell[e18probe]{{"rename", probeRename}, {"readdir", probeReaddir}},
		report: func(r *Report, out []e18probe) {
			ren, rd := out[0], out[1]
			sameAvg, crossAvg := ren.base, ren.cost
			r.row("same-shard rename", float64(sameAvg.Microseconds()), "us", "hash placement, 8 shards")
			r.row("cross-shard rename", float64(crossAvg.Microseconds()), "us", "migrate + interconnect hop")
			r.row("cross-shard rename penalty", float64(crossAvg)/float64(sameAvg), "x", "")
			r.row("interconnect crossings", float64(ren.crossings), "", "")

			rootAvg, localAvg := rd.cost, rd.base
			r.row("root readdir (8-shard merge)", float64(rootAvg.Microseconds()), "us", "subtree placement")
			r.row("subtree-local readdir", float64(localAvg.Microseconds()), "us", "")
			r.row("merge penalty", float64(rootAvg)/float64(localAvg), "x", "")
			r.finding("a shard boundary turns one RPC into a coordinated pair: "+
				"cross-shard rename costs %.1fx a local one (%.0f vs %.0f us), and a "+
				"root listing that merges 8 shards costs %.1fx a subtree-local one",
				float64(crossAvg)/float64(sameAvg), float64(crossAvg.Microseconds()),
				float64(sameAvg.Microseconds()), float64(rootAvg)/float64(localAvg))
		},
	}
}

// e18probe is one E18 cell: the mean cost of an operation that crosses
// shards and of its single-shard baseline.
type e18probe struct {
	cost, base time.Duration
	crossings  int64
}
