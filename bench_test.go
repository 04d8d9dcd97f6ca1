package dmetabench

// One sub-benchmark per table/figure of the thesis evaluation,
// generated from the experiment registry (see DESIGN.md for the
// experiment index), plus micro-benchmarks of the substrates. Each
// experiment sub-benchmark performs a full simulated run per iteration
// and attaches every report row via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the complete evaluation.
//
// Experiment benchmarks run their cells serially by default so ns/op
// stays comparable across the committed BENCH_*.json trajectory (a
// wider pool would fold scheduling luck into the numbers). Pass
// -bench-workers N to measure an experiment's parallel wall-clock
// instead; the reported metrics are byte-identical either way.

import (
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/experiments"
	"dmetabench/internal/namespace"
	"dmetabench/internal/nfs"
	"dmetabench/internal/par"
	"dmetabench/internal/realrun"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

var benchWorkers = flag.Int("bench-workers", 1,
	"worker pool size for experiment-benchmark cells (1 = serial, snapshot-comparable)")

func TestMain(m *testing.M) {
	flag.Parse()
	par.SetWorkers(*benchWorkers)
	os.Exit(m.Run())
}

// BenchmarkExperiment runs every experiment of the registry as a
// sub-benchmark (BenchmarkExperiment/E07), one full simulated run per
// iteration, and reports every row of the report as a metric named
// <row>_<unit>. The long-horizon experiments that read
// experiments.Period (E31–E33, E35) run at a 10-minute horizon: their
// defaults simulate hours per cell, more than an iteration should cost.
func BenchmarkExperiment(b *testing.B) {
	old := experiments.Period
	experiments.Period = 10 * time.Minute
	defer func() { experiments.Period = old }()
	for _, e := range append(experiments.All(), experiments.Ablations()...) {
		b.Run(e.ID, func(b *testing.B) {
			var rep *experiments.Report
			for i := 0; i < b.N; i++ {
				if rep = e.Run(); rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
			for _, row := range rep.Rows {
				unit := row.Unit
				if unit == "" {
					unit = "val"
				}
				b.ReportMetric(row.Value, sanitize(row.Name)+"_"+sanitize(unit))
			}
		})
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '/', r == '-':
			out = append(out, '_')
		}
	}
	return string(out)
}

// --- substrate micro-benchmarks ---

// BenchmarkSimulatedCreate measures the real-time cost of one simulated
// NFS create — the simulator's own efficiency (DESIGN.md ablation).
func BenchmarkSimulatedCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := nfs.New(k, "bench", nfs.DefaultConfig())
	k.Spawn("creator", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < b.N; i++ {
			if i%5000 == 0 {
				c.Mkdir(fmt.Sprintf("/d/s%d", i/5000))
			}
			c.Create(fmt.Sprintf("/d/s%d/%d", i/5000, i))
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedCreate measures the real-time cost of one simulated
// create on the sharded MDS model (4 shards, hash placement) — the
// multi-server counterpart of BenchmarkSimulatedCreate.
func BenchmarkShardedCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := shard.New(k, "bench", shard.DefaultConfig(4))
	k.Spawn("creator", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < b.N; i++ {
			if i%5000 == 0 {
				c.Mkdir(fmt.Sprintf("/d/s%d", i/5000))
			}
			c.Create(fmt.Sprintf("/d/s%d/%d", i/5000, i))
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDomainCreate measures the real-time cost of one simulated
// create on the domained sharded MDS (8 shards partitioned into 9
// event-kernel domains, 8 concurrent client processes): the
// conservative-lookahead substrate — window barriers, cross-domain
// mailboxes, rendezvous RPCs — on top of the BenchmarkShardedCreate
// path, gated alongside it.
func BenchmarkDomainCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(8))
	cfg := shard.DefaultConfig(8)
	cfg.Domains = 9
	fsys := shard.New(k, "bench", cfg)
	per := b.N/8 + 1
	for c := 0; c < 8; c++ {
		c := c
		k.Spawn(fmt.Sprintf("creator-%d", c), func(p *sim.Proc) {
			cli := fsys.NewClient(cl.Nodes[c], p)
			cli.Mkdir(fmt.Sprintf("/d%d", c))
			for i := 0; i < per; i++ {
				if i%5000 == 0 {
					cli.Mkdir(fmt.Sprintf("/d%d/s%d", c, i/5000))
				}
				cli.Create(fmt.Sprintf("/d%d/s%d/%d", c, i/5000, i))
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// domainedCell runs one heavy replicated 8-shard cell — E20's 16-node x
// 4-process create load — with the given domain partitioning and worker
// pool, and returns the FS for counter readout.
func domainedCell(domains, workers int) *shard.FS {
	k := sim.New(1600)
	cl := cluster.New(k, cluster.DefaultConfig(16))
	cfg := shard.DefaultConfig(8)
	cfg.Replicate = true
	cfg.Domains = domains
	fsys := shard.New(k, "bench", cfg)
	if g := fsys.Group(); g != nil && workers > 0 {
		g.Workers = workers
	}
	r := &core.Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       core.Params{ProblemSize: 500, WorkDir: "/"},
		SlotsPerNode: 4,
		Plugins:      []core.Plugin{core.MakeFiles{}},
		Filter:       func(c core.Combo) bool { return c.Nodes == 16 && c.PPN == 4 },
	}
	if _, err := r.Run(); err != nil {
		panic(err)
	}
	return fsys
}

// BenchmarkDomainedCell measures the wall-clock of one heavy replicated
// 8-shard cell on the single-heap kernel vs partitioned into 9 kernel
// domains (8 shard domains + the client domain) on 1, 2 and 8 workers.
// The domained runs additionally report their parallelism headroom:
// total events dispatched divided by the busiest domain's share — the
// wall-clock speedup bound an ideal multi-core run converges to (see
// DESIGN.md, "Parallel DES"). On a single-core host the domained
// wall-clock shows pure protocol overhead; the headroom metric is
// hardware-independent.
func BenchmarkDomainedCell(b *testing.B) {
	headroom := func(f *shard.FS) float64 {
		g := f.Group()
		var tot, max int64
		for i := 0; i < g.NumDomains(); i++ {
			d := g.Kernel(i).Dispatched()
			tot += d
			if d > max {
				max = d
			}
		}
		return float64(tot) / float64(max)
	}
	b.Run("single-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			domainedCell(0, 0)
		}
	})
	b.Run("domains-9-workers-1", func(b *testing.B) {
		var f *shard.FS
		for i := 0; i < b.N; i++ {
			f = domainedCell(9, 1)
		}
		b.ReportMetric(headroom(f), "headroomx")
	})
	for _, workers := range []int{2, 8} {
		b.Run(fmt.Sprintf("domains-9-workers-%d", workers), func(b *testing.B) {
			var f *shard.FS
			for i := 0; i < b.N; i++ {
				f = domainedCell(9, workers)
			}
			b.ReportMetric(headroom(f), "headroomx")
		})
	}
}

// BenchmarkNFSDomainCreate measures the real-time cost of one simulated
// create on the domained NFS filer (client domain + filer domain via
// the shared service runtime, 4 concurrent client processes): the
// cross-domain RPC path — the Call rendezvous, cache fills applied
// from the reply — on top of the BenchmarkSimulatedCreate path, gated alongside
// BenchmarkDomainCreate.
func BenchmarkNFSDomainCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(4))
	cfg := nfs.DefaultConfig()
	cfg.Domains = 2
	fsys := nfs.New(k, "bench", cfg)
	per := b.N/4 + 1
	for c := 0; c < 4; c++ {
		c := c
		k.Spawn(fmt.Sprintf("creator-%d", c), func(p *sim.Proc) {
			cli := fsys.NewClient(cl.Nodes[c], p)
			cli.Mkdir(fmt.Sprintf("/d%d", c))
			for i := 0; i < per; i++ {
				if i%5000 == 0 {
					cli.Mkdir(fmt.Sprintf("/d%d/s%d", c, i/5000))
				}
				cli.Create(fmt.Sprintf("/d%d/s%d/%d", c, i/5000, i))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCachedGetattr measures the real-time cost of one coherent
// cache hit: a stat served from a live lease on the sharded MDS model
// (4 shards, lease mode) — the fast path every E22–E24 run spends most
// of its operations on, gated alongside SimulatedCreate.
func BenchmarkCachedGetattr(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	cfg := shard.DefaultConfig(4)
	cfg.CacheMode = shard.CacheLease
	cfg.LeaseTTL = time.Hour
	fsys := shard.New(k, "bench", cfg)
	k.Spawn("statter", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		c.Create("/d/f")
		if _, err := c.Stat("/d/f"); err != nil { // take the lease
			b.Error(err)
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Stat("/d/f"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBackendCreate measures the real-time cost of one simulated
// create on the LSM-backed sharded MDS (4 shards, hash placement): the
// backend pricing hooks — opInfo classification, the factor multiply,
// write-amplified logging and compaction-debt bookkeeping — on top of
// the BenchmarkShardedCreate path, gated alongside it.
func BenchmarkBackendCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	cfg := shard.DefaultConfig(4)
	cfg.Backend = shard.BackendLSM
	fsys := shard.New(k, "bench", cfg)
	k.Spawn("creator", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < b.N; i++ {
			if i%5000 == 0 {
				c.Mkdir(fmt.Sprintf("/d/s%d", i/5000))
			}
			c.Create(fmt.Sprintf("/d/s%d/%d", i/5000, i))
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSplitCreate measures the real-time cost of one simulated
// create into an already-split giant directory (4 shards, split level
// capped): the steady-state split path every E25–E27 run spends most of
// its operations on — bitmap routing, partition hashing, the split-aware
// owner resolution — gated alongside SimulatedCreate.
func BenchmarkSplitCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	cfg := shard.DefaultConfig(4)
	cfg.SplitThreshold = 256
	fsys := shard.New(k, "bench", cfg)
	k.Spawn("creator", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/wide")
		for i := 0; i < 2000; i++ {
			c.Create(fmt.Sprintf("/wide/w%d", i))
		}
		if fsys.SplitLevel("/wide") == 0 {
			b.Error("directory did not split during setup")
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Create(fmt.Sprintf("/wide/b%d", i))
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAggregateInject measures the real-time cost per injected
// background operation of the aggregate arrival path (E31-E33): source
// draw, batch pricing and the Acquire/Sleep/Release hold, across 4
// shards x 4 injector lanes. The per-iteration work is one modeled
// operation, not one simulated client — that is the point of the
// aggregate model — and the steady-state loop is allocation-free
// (bench_gate.sh fails the build if allocs/op ever leaves 0).
func BenchmarkAggregateInject(b *testing.B) {
	k := sim.New(1)
	fsys := shard.New(k, "bench", shard.DefaultConfig(4))
	const perTick = 64 // per lane per tick: 2.56ms priced vs a 10ms tick
	const tick = 10 * time.Millisecond
	fsys.AttachAggregate(tick, func(_, _, _ int) shard.AggregateDemand {
		return shard.AggregateDemand{Getattr: perTick}
	})
	lanes := 4 * 4
	ticks := b.N/(lanes*perTick) + 1
	k.Spawn("horizon", func(p *sim.Proc) {
		p.Sleep(time.Duration(ticks) * tick)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNamespaceCreate measures the raw data-structure cost.
func BenchmarkNamespaceCreate(b *testing.B) {
	ns := namespace.New()
	ns.Mkdir("/d", 0o755, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			ns.Mkdir(fmt.Sprintf("/d/s%d", i/10000), 0o755, 0)
		}
		ns.Create(fmt.Sprintf("/d/s%d/%d", i/10000, i), 0o644, 0)
	}
}

// BenchmarkOSClientCreate measures real create+unlink pairs on the host
// file system through the benchmark API.
func BenchmarkOSClientCreate(b *testing.B) {
	c := realrun.NewOSClient(b.TempDir())
	c.Mkdir("/d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("/d/%d", i)
		if err := c.Create(name); err != nil {
			b.Fatal(err)
		}
		if err := c.Unlink(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerMeasurement measures a complete framework measurement
// cycle (prepare/doBench/cleanup with supervisor) end to end.
func BenchmarkRunnerMeasurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.New(int64(i))
		cl := cluster.New(k, cluster.DefaultConfig(2))
		fsys := nfs.New(k, "home", nfs.DefaultConfig())
		r := &core.Runner{
			Cluster:      cl,
			FS:           fsys,
			Params:       core.Params{ProblemSize: 500, WorkDir: "/bench"},
			SlotsPerNode: 1,
			Plugins:      []core.Plugin{core.MakeFiles{}},
			Filter:       func(c core.Combo) bool { return c.Nodes == 2 },
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInterval quantifies the DESIGN.md ablation: result
// fidelity and cost of the 0.1 s interval grid vs. a coarser 1 s grid.
func BenchmarkAblationInterval(b *testing.B) {
	for _, interval := range []time.Duration{100 * time.Millisecond, time.Second} {
		interval := interval
		b.Run(interval.String(), func(b *testing.B) {
			var stone float64
			for i := 0; i < b.N; i++ {
				k := sim.New(3)
				cl := cluster.New(k, cluster.DefaultConfig(4))
				fsys := nfs.New(k, "home", nfs.DefaultConfig())
				r := &core.Runner{
					Cluster: cl,
					FS:      fsys,
					Params: core.Params{
						ProblemSize: 5000, TimeLimit: 10 * time.Second,
						WorkDir: "/bench", Interval: interval,
					},
					SlotsPerNode: 1,
					Plugins:      []core.Plugin{core.MakeFiles{}},
					Filter:       func(c core.Combo) bool { return c.Nodes == 4 },
				}
				set, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				stone = set.Measurements[0].Averages().Stonewall
			}
			b.ReportMetric(stone, "stonewall_ops_per_s")
		})
	}
}
