package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"dmetabench/internal/fs"
)

// modelStats are simulated quantities: a pure function of workload,
// size and seed. Tracing must not change any of them, and neither may a
// change that only speeds up the simulator.
type modelStats struct {
	ClientOps   int64 // fs.Client calls, every phase
	Completed   int64 // sum of Ctx.Tick
	VTime       time.Duration
	Events      int64 // kernel events dispatched, all domains
	Windows     int64 // domain-group windows (0 on a single heap)
	Busiest     int64 // events of the busiest domain
	RPCs        int64
	CacheHits   int64
	CacheMisses int64
	Revocations int64
	Cross       int64
	AggOps      int64
	AggShed     int64
	Digest      string
}

// latencies are the virtual client latencies the spans of a traced run
// give.
type latencies struct {
	createP50, createP99, statP50, statP99 time.Duration
}

// mode selects what one rep records besides its host counters.
type mode int

const (
	plain         mode = iota
	cpuProfiled        // spans plus a CPU profile of Run
	allocProfiled      // spans plus a MemProfileRate=1 heap profile of Run
)

// rep is one build-and-run of a workload.
type rep struct {
	ref              time.Duration // reference loop just before the rep
	setup, wall, cpu time.Duration
	planned          int64
	allocs, bytes    uint64
	gcCycles         uint64
	// goroutines and live heap bytes left in the process after the rep
	// and a full GC: what a finished simulation keeps alive.
	goroutines, live uint64
	model            modelStats
	lat              latencies
	problems         []string
	profile          map[string]int64 // per-layer CPU ns or allocations
	gcNs             int64            // CPU-profile time doing GC work
	rec              *recorder
}

var metricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/goroutines:goroutines",
	"/gc/heap/live:bytes",
}

type hostSnap struct {
	allocs, bytes, cycles uint64
	goroutines, live      uint64
	cpu                   time.Duration
}

func readHost() hostSnap {
	s := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSnap{
		allocs:     s[0].Value.Uint64(),
		bytes:      s[1].Value.Uint64(),
		cycles:     s[2].Value.Uint64(),
		goroutines: s[3].Value.Uint64(),
		live:       s[4].Value.Uint64(), // as of the last GC
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// runRep builds the workload, runs it once and checks the output.
func runRep(w workloadDef, seed int64, o options, m mode) (*rep, error) {
	t0 := time.Now()
	inst := w.instance(seed, o)
	r := &rep{setup: time.Since(t0), planned: inst.planned, rec: inst.rec}
	inst.rec.tracing = m != plain

	var prof bytes.Buffer
	var heapBefore map[string]int64
	if m == allocProfiled {
		// Sample no allocation outside Run: with the rate at 0 while
		// the snapshots are written, the two see the same earlier
		// samples, unscaled, and their difference is exactly Run's.
		runtime.MemProfileRate = 0
	}
	runtime.GC()
	if m == allocProfiled {
		var err error
		if heapBefore, err = heapByLayer(); err != nil {
			return nil, err
		}
	}
	if m == cpuProfiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	before := readHost()
	if m == allocProfiled {
		runtime.MemProfileRate = 1
	}
	t1 := time.Now()
	set, runErr := inst.runner.Run()
	r.wall = time.Since(t1)
	if m == allocProfiled {
		runtime.MemProfileRate = 0
	}
	after := readHost()
	if m == cpuProfiled {
		pprof.StopCPUProfile()
	}
	// The heap profile and the live-heap metric publish at a GC.
	runtime.GC()
	flushed := readHost()

	r.cpu = after.cpu - before.cpu
	r.allocs = after.allocs - before.allocs
	r.bytes = after.bytes - before.bytes
	r.gcCycles = after.cycles - before.cycles
	r.goroutines, r.live = flushed.goroutines, flushed.live

	switch m {
	case cpuProfiled:
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		if r.profile, err = p.byLayer("cpu"); err != nil {
			return nil, err
		}
		if r.gcNs, err = p.gcValue("cpu"); err != nil {
			return nil, err
		}
	case allocProfiled:
		heapAfter, err := heapByLayer()
		if err != nil {
			return nil, err
		}
		r.profile = map[string]int64{}
		for l, n := range heapAfter {
			r.profile[l] = n - heapBefore[l]
		}
	}

	if runErr != nil {
		r.problems = append(r.problems, "run: "+runErr.Error())
		return r, nil
	}
	ms := &r.model
	ms.ClientOps = inst.rec.ops
	for _, meas := range set.Measurements {
		ms.Completed += meas.TotalOps()
	}
	k := inst.runner.Cluster.Kernel()
	ms.VTime = k.Now()
	if g := inst.group; g != nil {
		ms.Windows = g.Windows()
		for i := 0; i < g.NumDomains(); i++ {
			d := g.Kernel(i).Dispatched()
			ms.Events += d
			ms.Busiest = max(ms.Busiest, d)
		}
	} else {
		ms.Events = k.Dispatched()
		ms.Busiest = ms.Events
	}
	inst.counters(ms)
	ms.Digest = digest(set)
	if m != plain {
		r.lat.createP50, r.lat.createP99 = inst.rec.latencyPercentiles(fs.OpCreate)
		r.lat.statP50, r.lat.statP99 = inst.rec.latencyPercentiles(fs.OpStat)
	}
	r.problems = check(w.name, seed, o.size == 0, inst, set, ms.Completed, ms.Digest)
	return r, nil
}

// heapByLayer reads the cumulative allocation profile, charged by
// layer. The caller runs a GC first so the profile is current.
func heapByLayer() (map[string]int64, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(b.Bytes())
	if err != nil {
		return nil, err
	}
	return p.byLayer("alloc_objects")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf returns the median of f over the reps.
func medianOf(reps []*rep, f func(r *rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func perOp(x float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
