package core

import (
	"fmt"
	"strconv"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// FileSystem is the mountable interface the runner benchmarks: every
// simulated file system model implements it.
type FileSystem interface {
	// Name identifies the file system in result sets.
	Name() string
	// NewClient binds a client for one process on one node.
	NewClient(node *cluster.Node, p *sim.Proc) fs.Client
}

// MeasurementInfo describes the measurement about to run (hook argument).
type MeasurementInfo struct {
	Op    string
	Nodes int
	PPN   int
}

// Runner executes a DMetabench run on a simulated cluster: placement
// discovery, execution plan, and per-measurement master/worker phases
// with interval logging (§3.3.3).
type Runner struct {
	Cluster *cluster.Cluster
	FS      FileSystem
	Params  Params
	// SlotsPerNode is the number of MPI slots per node; an extra master
	// slot is placed on the first node so every node contributes the
	// full SlotsPerNode workers (Fig. 3.9).
	SlotsPerNode int
	Plugins      []Plugin
	// BenchStartHook, when set, runs in the master process at the start
	// of every doBench phase — experiments use it to inject
	// disturbances at defined offsets (§4.2.3).
	BenchStartHook func(mp *sim.Proc, info MeasurementInfo)
	// ProfileLoad, when positive, samples node CPU load for this long
	// before the first measurement (the vmstat step of §3.3.3).
	ProfileLoad time.Duration
	// Filter, when set, selects which plan combos run (in addition to
	// the NodeStep/PPNStep thinning).
	Filter func(Combo) bool
	// CollectLatencies wraps every client to record per-operation
	// latency histograms during the doBench phase.
	CollectLatencies bool
}

// Run performs the full benchmark run and drives the simulation kernel
// until completion.
func (r *Runner) Run() (*results.Set, error) {
	k := r.Cluster.Kernel()
	set, err := r.Start(k)
	if err != nil {
		return nil, err
	}
	if err := k.Run(); err != nil {
		return nil, err
	}
	return set, nil
}

// plan performs placement discovery for this runner's cluster/slot
// configuration and returns the filtered execution plan — the combo
// list the master loop iterates.
func (r *Runner) plan() ([]Combo, error) {
	if len(r.Plugins) == 0 {
		return nil, fmt.Errorf("dmetabench: no operations selected")
	}
	if r.SlotsPerNode < 1 {
		r.SlotsPerNode = 1
	}
	var names []string
	for _, n := range r.Cluster.Nodes {
		names = append(names, n.Name)
	}
	slots := UniformSlots(names, r.SlotsPerNode)
	// Extra slot for the master on the first node, so placement
	// discovery assigns the master there and every node retains
	// SlotsPerNode workers.
	slots = append(slots, Slot{Node: names[0], NodeIndex: 0,
		SlotOnNode: r.SlotsPerNode, GlobalID: len(slots)})
	placement, err := Discover(slots)
	if err != nil {
		return nil, err
	}
	plan := placement.Plan(r.Params.NodeStep, r.Params.PPNStep)
	if r.Filter != nil {
		var kept []Combo
		for _, c := range plan {
			if r.Filter(c) {
				kept = append(kept, c)
			}
		}
		plan = kept
	}
	return plan, nil
}

// Start spawns the master process and returns the result set it will
// fill; the caller must drive the kernel (Run or RunFor). Use Run unless
// the experiment interleaves other simulation activity.
func (r *Runner) Start(k *sim.Kernel) (*results.Set, error) {
	plan, err := r.plan()
	if err != nil {
		return nil, err
	}
	set := results.NewSet(r.Params.Label, r.FS.Name(), r.Params.interval())
	r.profileStatic(set)

	k.Spawn("dmetabench-master", func(mp *sim.Proc) {
		if r.ProfileLoad > 0 {
			r.profileLoad(mp, set)
		}
		for _, combo := range plan {
			for _, plugin := range r.Plugins {
				m := r.runMeasurement(mp, combo, plugin)
				set.Add(m)
			}
		}
	})
	return set, nil
}

// profileStatic records static environment configuration (§3.2.6).
func (r *Runner) profileStatic(set *results.Set) {
	set.Environment["filesystem"] = r.FS.Name()
	set.Environment["nodes"] = fmt.Sprint(len(r.Cluster.Nodes))
	for _, n := range r.Cluster.Nodes {
		set.Environment["node:"+n.Name] = fmt.Sprintf("cores=%d", n.Cores)
	}
	set.Environment["slots_per_node"] = fmt.Sprint(r.SlotsPerNode)
	set.Environment["interval"] = r.Params.interval().String()
	if r.Params.TimeLimit > 0 {
		set.Environment["time_limit"] = r.Params.TimeLimit.String()
	}
	set.Environment["problem_size"] = fmt.Sprint(r.Params.ProblemSize)
}

// profileLoad samples pre-run CPU load on every node.
func (r *Runner) profileLoad(mp *sim.Proc, set *results.Set) {
	samples := int(r.ProfileLoad / (100 * time.Millisecond))
	if samples < 1 {
		samples = 1
	}
	busy := make([]int, len(r.Cluster.Nodes))
	for s := 0; s < samples; s++ {
		mp.Sleep(100 * time.Millisecond)
		for i, n := range r.Cluster.Nodes {
			if n.CPUQueueLen() > 0 || n.ActiveHogs() > 0 {
				busy[i]++
			}
		}
	}
	for i, n := range r.Cluster.Nodes {
		set.Environment["load:"+n.Name] =
			fmt.Sprintf("%.0f%%", 100*float64(busy[i])/float64(samples))
	}
}

// runMeasurement executes one (combo, plugin) measurement: spawn the
// workers, run the three phases with barriers, and sample progress on
// the interval grid from the master (acting as the supervisor).
func (r *Runner) runMeasurement(mp *sim.Proc, combo Combo, plugin Plugin) *results.Measurement {
	k := mp.Kernel()
	procs := combo.Procs()
	interval := r.Params.interval()
	barrier := sim.NewBarrier(k, "phase", procs+1)

	ctxs := make([]*Ctx, procs)
	done := make([]bool, procs)
	benchActive := false
	var latencies map[fs.OpKind]*results.Histogram
	if r.CollectLatencies {
		latencies = make(map[fs.OpKind]*results.Histogram)
	}
	finishedAt := make([]time.Duration, procs)
	errs := make([]string, procs)
	dirs := make([]string, procs)
	for rank := range combo.Workers {
		base := r.Params.WorkDir
		if len(r.Params.PathList) > 0 {
			base = r.Params.PathList[rank%len(r.Params.PathList)]
		}
		dirs[rank] = workerDir(base, plugin.Name(), combo.Nodes, procs, rank)
	}

	for rank, slot := range combo.Workers {
		rank, slot := rank, slot
		node := r.Cluster.Nodes[slot.NodeIndex]
		k.Spawn("worker-"+strconv.Itoa(rank), func(p *sim.Proc) {
			ctx := &Ctx{
				Rank:     rank,
				Workers:  procs,
				Node:     node.Name,
				NodeRank: slot.SlotOnNode,
				Dir:      dirs[rank],
				PeerDir:  dirs[peerRank(rank, combo)],
				Params:   r.Params,
			}
			phaseStart := p.Now()
			ctx.Now = func() time.Duration { return p.Now() - phaseStart }
			ctx.FS = r.FS.NewClient(node, p)
			if r.CollectLatencies {
				// The simulator runs one process at a time, so the
				// shared histogram map needs no locking.
				ctx.FS = fs.NewLatencyClient(ctx.FS,
					func() time.Duration { return p.Now() },
					func(kind fs.OpKind, d time.Duration) {
						if !benchActive {
							return
						}
						h := latencies[kind]
						if h == nil {
							h = &results.Histogram{}
							latencies[kind] = h
						}
						h.Add(d)
					})
			}
			ctxs[rank] = ctx

			if err := plugin.Prepare(ctx); err != nil {
				errs[rank] = fmt.Sprintf("prepare: %v", err)
			}
			barrier.Wait(p)

			benchStart := p.Now()
			ctx.Now = func() time.Duration { return p.Now() - benchStart }
			ctx.Deadline = r.Params.TimeLimit
			if errs[rank] == "" {
				if err := plugin.DoBench(ctx); err != nil {
					errs[rank] = fmt.Sprintf("dobench: %v", err)
				}
			}
			finishedAt[rank] = p.Now() - benchStart
			done[rank] = true
			barrier.Wait(p)

			if err := plugin.Cleanup(ctx); err != nil && errs[rank] == "" {
				errs[rank] = fmt.Sprintf("cleanup: %v", err)
			}
			barrier.Wait(p)
		})
	}

	// Master: wait out prepare, then supervise the bench phase.
	barrier.Wait(mp)
	benchActive = true
	if r.BenchStartHook != nil {
		r.BenchStartHook(mp, MeasurementInfo{Op: plugin.Name(), Nodes: combo.Nodes, PPN: combo.PPN})
	}
	// Preallocate the per-process trace slices: with a time limit the
	// sample count is known up front; otherwise start with a page worth
	// of samples instead of growing from nil.
	sampleCap := 64
	if r.Params.TimeLimit > 0 {
		sampleCap = int(r.Params.TimeLimit/interval) + 2
	}
	traces := make([][]int64, procs)
	for i := range traces {
		traces[i] = make([]int64, 0, sampleCap)
	}
	for {
		mp.Sleep(interval)
		allDone := true
		for i, ctx := range ctxs {
			traces[i] = append(traces[i], ctx.Progress())
			if !done[i] {
				allDone = false
			}
		}
		if allDone {
			break
		}
	}
	barrier.Wait(mp) // bench end
	benchActive = false
	barrier.Wait(mp) // cleanup end

	m := &results.Measurement{
		Op:       plugin.Name(),
		Nodes:    combo.Nodes,
		PPN:      combo.PPN,
		Interval: interval,
		Errors:   errs,
	}
	if r.CollectLatencies {
		m.Latencies = make(map[string]*results.Histogram, len(latencies))
		for kind, h := range latencies {
			m.Latencies[kind.String()] = h
		}
	}
	for rank, slot := range combo.Workers {
		m.Traces = append(m.Traces, results.Trace{
			Host:       slot.Node,
			Op:         plugin.Name(),
			Proc:       rank,
			Done:       traces[rank],
			Final:      ctxs[rank].Progress(),
			FinishedAt: finishedAt[rank],
		})
	}
	return m
}

// workerDir builds "<base>/<op>-n<nodes>-p<procs>/p<rank padded to 3>"
// with a single sized allocation (the fmt.Sprintf it replaces showed up
// in measurement-setup profiles).
func workerDir(base, op string, nodes, procs, rank int) string {
	b := make([]byte, 0, len(base)+len(op)+32)
	b = append(b, base...)
	b = append(b, '/')
	b = append(b, op...)
	b = append(b, "-n"...)
	b = strconv.AppendInt(b, int64(nodes), 10)
	b = append(b, "-p"...)
	b = strconv.AppendInt(b, int64(procs), 10)
	b = append(b, "/p"...)
	if rank < 100 {
		b = append(b, '0')
	}
	if rank < 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(rank), 10)
	return string(b)
}

// peerRank pairs every worker with a partner on another node when
// possible (StatMultinodeFiles); with a single node the partner is simply
// the next process.
func peerRank(rank int, combo Combo) int {
	n := combo.Procs()
	if n == 1 {
		return 0
	}
	own := combo.Workers[rank].NodeIndex
	for off := 1; off < n; off++ {
		cand := (rank + off) % n
		if combo.Workers[cand].NodeIndex != own {
			return cand
		}
	}
	return (rank + 1) % n
}
