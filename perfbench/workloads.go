package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"dmetabench/internal/agg"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/fs"
	"dmetabench/internal/lustre"
	"dmetabench/internal/namespace"
	"dmetabench/internal/nfs"
	"dmetabench/internal/service"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
	"dmetabench/internal/workload"
)

// Every workload runs closed loop on 8 nodes x 4 processes: each
// simulated process issues its next operation when the previous one
// returns. The 100 ms default sampling interval is refined to 10 ms so
// the result-set digest resolves small timing changes.
const (
	nodes    = 8
	ppn      = 4
	interval = 10 * time.Millisecond
)

// options are the knobs of one workload build. The zero value is the
// benchmark's own configuration; tests shrink the run with size and
// perturb the model with mutate.
type options struct {
	// size, when positive, replaces the per-process operation count.
	size int
	// mutate, when set, edits the model config (*nfs.Config,
	// *shard.Config or *lustre.Config) before the model is built.
	mutate func(cfg any)
}

// instance is one fully built workload: a runner over a wrapped file
// system, ready for Runner.Run.
type instance struct {
	runner  *core.Runner
	rec     *recorder
	planned int64 // ops the plugins will tick if none fails
	group   *sim.DomainGroup
	// namespaces lists every namespace the run mutates, for the
	// post-run consistency check.
	namespaces func() []*namespace.Namespace
	// counters reads the model's own counters after the run.
	counters func(m *modelStats)
}

type workloadDef struct {
	name  string
	size  int // default per-process operation count
	build func(seed int64, size int, mutate func(any)) *instance
}

var workloads = []workloadDef{
	{
		name:  "nfs-paper",
		size:  50,
		build: buildNFSPaper,
	},
	{
		name:  "shard-lease",
		size:  100,
		build: buildShardLease,
	},
	{
		name:  "lustre-domained",
		size:  100,
		build: buildLustreDomained,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

func (w workloadDef) instance(seed int64, o options) *instance {
	size := w.size
	if o.size > 0 {
		size = o.size
	}
	return w.build(seed, size, o.mutate)
}

// newRunner assembles the runner every workload shares: the full
// 8x4 combination only, the file system wrapped for op counting and
// spans, and BenchStartHook opening the measurement spans.
func newRunner(k *sim.Kernel, fsys core.FileSystem, size int, plugins ...core.Plugin) (*core.Runner, *recorder) {
	rec := &recorder{}
	r := &core.Runner{
		Cluster:      cluster.New(k, cluster.DefaultConfig(nodes)),
		FS:           &countedFS{inner: fsys, rec: rec},
		Params:       core.Params{ProblemSize: size, WorkDir: "/bench", Interval: interval},
		SlotsPerNode: ppn,
		Plugins:      plugins,
		Filter:       func(c core.Combo) bool { return c.Nodes == nodes && c.PPN == ppn },
		BenchStartHook: func(mp *sim.Proc, info core.MeasurementInfo) {
			rec.openMeasurement(info.Op, mp.Now())
		},
	}
	return r, rec
}

func buildNFSPaper(seed int64, size int, mutate func(any)) *instance {
	k := sim.New(seed)
	cfg := nfs.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	f := nfs.New(k, "home", cfg)
	r, rec := newRunner(k, f, size, core.MakeFiles{}, core.StatFiles{}, core.DeleteFiles{})
	return &instance{
		runner:     r,
		rec:        rec,
		planned:    3 * nodes * ppn * int64(size),
		namespaces: func() []*namespace.Namespace { return []*namespace.Namespace{f.Namespace()} },
		counters: func(m *modelStats) {
			m.RPCs = f.RPCCount()
		},
	}
}

// The shard-lease op streams. Project trees and the hot pool are sized
// so that the Zipf heads are shared by every process and the tails are
// touched rarely.
const (
	slProjects   = 16
	slSubdirs    = 8
	slCreateSkew = 1.2
	slMkdirEvery = 16
	slPoolFiles  = 256
	slPoolSkew   = 1.1
	slWriteEvery = 8
)

func buildShardLease(seed int64, size int, mutate func(any)) *instance {
	k := sim.New(seed)
	cfg := shard.DefaultConfig(4)
	cfg.Placement = shard.PlaceHashDir
	cfg.CacheMode = shard.CacheLease
	if mutate != nil {
		mutate(&cfg)
	}
	f := shard.New(k, "meta", cfg)
	procs := nodes * ppn
	creates := newZipfCreates(seed, procs, size)
	pool := newHotPool(seed, procs, size)
	r, rec := newRunner(k, f, size, creates, pool)
	return &instance{
		runner:  r,
		rec:     rec,
		planned: creates.planned() + pool.planned(),
		namespaces: func() []*namespace.Namespace {
			out := make([]*namespace.Namespace, f.NumShards())
			for i := range out {
				out[i] = f.Namespace(i)
			}
			return out
		},
		counters: func(m *modelStats) {
			m.RPCs = f.RPCCount()
			m.CacheHits, m.CacheMisses, m.Revocations, _ = f.CacheStats()
			m.Cross = f.CrossCount
		},
	}
}

func buildLustreDomained(seed int64, size int, mutate func(any)) *instance {
	k := sim.New(seed)
	cfg := lustre.DefaultConfig()
	// Clients in domain 0, the MDS and the OSS spread over two more.
	cfg.Domains = 3
	if mutate != nil {
		mutate(&cfg)
	}
	f := lustre.New(k, "scratch", cfg)
	model := agg.Model{
		Clients:      200_000,
		OpsPerClient: 0.05,
		Mix:          workload.DefaultMetaMix(),
		Zipf:         agg.ZipfPop{S: 1.1, V: 1, N: 512},
		Tick:         5 * time.Millisecond,
		Seed:         seed,
	}
	sources := agg.NewSources(model, 1, cfg.MDSThreads, func(int) int { return 0 })
	f.AttachAggregate(model.Tick, func(_, lane, tick int) service.Demand {
		d := sources[lane].Tick(int64(tick))
		return service.Demand{Getattr: d.Getattr, Lookup: d.Lookup, Readdir: d.Readdir, Create: d.Create}
	})
	r, rec := newRunner(k, f, size, core.MakeFiles{}, core.StatFiles{})
	return &instance{
		runner:     r,
		rec:        rec,
		planned:    2 * nodes * ppn * int64(size),
		group:      f.Group(),
		namespaces: func() []*namespace.Namespace { return []*namespace.Namespace{f.Namespace()} },
		counters: func(m *modelStats) {
			m.RPCs = f.RPCCount()
			m.AggOps, m.AggShed, _ = f.AggCounts()
		},
	}
}

// rankRand returns the private stream of one (plugin, rank) pair. The
// workload seed is the only input.
func rankRand(seed int64, plugin, rank int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(plugin)*10_007 + int64(rank)))
}

// streamOp is one pre-generated operation of a rank's stream.
type streamOp struct {
	kind fs.OpKind
	path string
}

// zipfCreates creates files in Zipf-drawn project subdirectories and
// a directory every slMkdirEvery creates, under hash placement: the
// mkdirs broadcast to every shard, the creates hop to the entry's
// shard. The whole stream is generated at set-up.
type zipfCreates struct {
	streams [][]streamOp
}

func newZipfCreates(seed int64, procs, size int) *zipfCreates {
	z := &zipfCreates{streams: make([][]streamOp, procs)}
	for rank := range z.streams {
		rng := rankRand(seed, 1, rank)
		zipf := rand.NewZipf(rng, slCreateSkew, 1, slProjects-1)
		ops := make([]streamOp, 0, size+size/slMkdirEvery)
		made := 0
		for i := 0; i < size; i++ {
			j := int(zipf.Uint64())
			s := rng.Intn(slSubdirs)
			ops = append(ops, streamOp{fs.OpCreate, projDir(j) + "/sd" + strconv.Itoa(s) +
				"/r" + strconv.Itoa(rank) + "-" + strconv.Itoa(i)})
			if (i+1)%slMkdirEvery == 0 {
				ops = append(ops, streamOp{fs.OpMkdir, projDir(j) + "/x" + strconv.Itoa(rank) + "-" + strconv.Itoa(made)})
				made++
			}
		}
		z.streams[rank] = ops
	}
	return z
}

func projDir(j int) string { return "/bench/zp" + strconv.Itoa(j) }

func (z *zipfCreates) planned() int64 { return streamLen(z.streams) }

func (z *zipfCreates) Name() string { return "ZipfCreates" }

// Prepare builds the project trees, each project owned by one rank.
func (z *zipfCreates) Prepare(c *core.Ctx) error {
	if err := core.MkdirAll(c.FS, "/bench"); err != nil {
		return err
	}
	for j := c.Rank; j < slProjects; j += c.Workers {
		if err := c.FS.Mkdir(projDir(j)); err != nil {
			return err
		}
		for s := 0; s < slSubdirs; s++ {
			if err := c.FS.Mkdir(projDir(j) + "/sd" + strconv.Itoa(s)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (z *zipfCreates) DoBench(c *core.Ctx) error {
	for _, op := range z.streams[c.Rank] {
		var err error
		if op.kind == fs.OpMkdir {
			err = c.FS.Mkdir(op.path)
		} else {
			err = c.FS.Create(op.path)
		}
		if err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes the project trees, partitioned like Prepare.
func (z *zipfCreates) Cleanup(c *core.Ctx) error {
	for j := c.Rank; j < slProjects; j += c.Workers {
		if err := core.RemoveAll(c.FS, projDir(j)); err != nil {
			return err
		}
	}
	return nil
}

// hotPool stats a pool of files shared by every process and rewrites
// one every slWriteEvery operations, drawing files Zipf-distributed:
// hot files are the most cached and the most revoked.
type hotPool struct {
	streams [][]streamOp
}

func newHotPool(seed int64, procs, size int) *hotPool {
	h := &hotPool{streams: make([][]streamOp, procs)}
	for rank := range h.streams {
		rng := rankRand(seed, 2, rank)
		zipf := rand.NewZipf(rng, slPoolSkew, 1, slPoolFiles-1)
		ops := make([]streamOp, size)
		for i := range ops {
			ops[i] = streamOp{fs.OpStat, poolFile(int(zipf.Uint64()))}
			if (i+1)%slWriteEvery == 0 {
				ops[i].kind = fs.OpWrite
			}
		}
		h.streams[rank] = ops
	}
	return h
}

func poolFile(id int) string { return "/bench/hot/f" + strconv.Itoa(id) }

func (h *hotPool) planned() int64 { return streamLen(h.streams) }

func (h *hotPool) Name() string { return "HotPoolStatWrite" }

// Prepare creates this rank's share of the pool.
func (h *hotPool) Prepare(c *core.Ctx) error {
	if err := core.MkdirAll(c.FS, "/bench/hot"); err != nil {
		return err
	}
	for i := c.Rank; i < slPoolFiles; i += c.Workers {
		if err := c.FS.Create(poolFile(i)); err != nil {
			return err
		}
	}
	return nil
}

func (h *hotPool) DoBench(c *core.Ctx) error {
	for _, op := range h.streams[c.Rank] {
		if op.kind == fs.OpWrite {
			fh, err := c.FS.Open(op.path)
			if err != nil {
				return err
			}
			if err := c.FS.Write(fh, 128); err != nil {
				return err
			}
			if err := c.FS.Close(fh); err != nil {
				return err
			}
		} else if _, err := c.FS.Stat(op.path); err != nil {
			return err
		}
		c.Tick()
	}
	return nil
}

// Cleanup removes this rank's share of the pool.
func (h *hotPool) Cleanup(c *core.Ctx) error {
	for i := c.Rank; i < slPoolFiles; i += c.Workers {
		if err := c.FS.Unlink(poolFile(i)); err != nil {
			return err
		}
	}
	return nil
}

func streamLen(streams [][]streamOp) int64 {
	var n int64
	for _, s := range streams {
		n += int64(len(s))
	}
	return n
}
