// Package service is the shared metadata-service runtime: the
// server-side substrate every FS model (shard, nfs, lustre) runs on.
// It owns the three scale capabilities that used to be hard-wired into
// internal/shard and unreachable from the models that reproduce the
// paper itself:
//
//   - Domain placement (Runtime): with Domains > 1 the cell's event
//     processing partitions into conservative-lookahead kernel domains
//     (internal/sim) — domain 0 runs the clients (workers, measurement
//     master, fault injectors) and domains 1..D-1 each run a subset of
//     the servers, round-robin. Every server's thread pools, storage
//     model and namespace state live on its own kernel, and RPCs become
//     timestamped cross-domain messages. With Domains <= 1 every helper
//     degrades to the exact single-kernel code path, byte for byte.
//
//   - Per-class op pricing (PriceTable): the base service times the
//     cost models charge per operation class, shared between foreground
//     RPC pricing and background demand batches so both pay the same
//     rates.
//
//   - Aggregate background injection (AttachAggregate): analytically
//     modeled load (internal/agg) enters a server as batched
//     virtual-time demand instead of per-client processes. Injector
//     lanes run as daemons on the server's own kernel domain; each tick
//     every lane draws its slice of the server's arrival batch, prices
//     it through the model's hook, then occupies one server thread for
//     that long. Foreground clients queue FIFO behind the injected
//     holds, so they observe genuine contention — queueing delay,
//     diurnal swell, flash-crowd saturation — from a load that costs no
//     per-client state.
//
// The correctness discipline mirrors internal/shard/domain.go: state
// belongs to the domain of the server serving it, rare global
// transitions run at sync points (Runtime.AtSync), and counters shared
// across domains are atomics whose sums are order-independent.
package service

import (
	"strconv"
	"sync/atomic"
	"time"

	"dmetabench/internal/sim"
)

// Runtime is the domain-placement substrate for one FS model: a client
// kernel (domain 0) plus one kernel per server, assigned round-robin
// over domains 1..D-1. With Domains <= 1 it is inert — every accessor
// returns the base kernel and the model runs exactly its single-heap
// code path.
type Runtime struct {
	k       *sim.Kernel
	g       *sim.DomainGroup
	kernels []*sim.Kernel // per-server kernels; nil when undomained
}

// New builds the runtime for a model with the given server count.
// domains is the requested domain count (Config.Domains); it is clamped
// to servers+1 (one client domain plus at most one domain per server).
// lookahead must be the model's latency floor — the smallest one-way
// delay any cross-domain interaction pays. A kernel already owned by a
// domain group (k.Group() != nil) stays undomained from this runtime's
// point of view: the model embeds into the existing group's kernel.
func New(k *sim.Kernel, servers, domains int, lookahead time.Duration) *Runtime {
	rt := &Runtime{k: k}
	if domains > 1 && k.Group() == nil {
		nd := domains
		if nd > servers+1 {
			nd = servers + 1
		}
		if nd > 1 {
			rt.g = sim.AddDomains(k, nd-1, lookahead)
			rt.kernels = make([]*sim.Kernel, servers)
			for i := range rt.kernels {
				rt.kernels[i] = rt.g.Kernel(1 + i%(nd-1))
			}
		}
	}
	return rt
}

// Domained reports whether the runtime runs on a multi-domain group.
func (rt *Runtime) Domained() bool { return rt.g != nil }

// Group exposes the domain group (nil when Domains <= 1).
func (rt *Runtime) Group() *sim.DomainGroup { return rt.g }

// Client returns the client-side kernel (domain 0, or the base kernel
// when undomained): workers, measurement masters and fault injectors
// spawn here.
func (rt *Runtime) Client() *sim.Kernel { return rt.k }

// KernelFor returns the kernel server i lives on (the base kernel when
// undomained).
func (rt *Runtime) KernelFor(i int) *sim.Kernel {
	if rt.kernels == nil {
		return rt.k
	}
	return rt.kernels[i]
}

// AtSync runs fn at the next safe global instant: immediately when
// undomained (the single kernel is always globally quiescent between
// events), else at a sync point one lookahead window ahead, with every
// domain parked at exactly that time.
func (rt *Runtime) AtSync(p *sim.Proc, fn func()) {
	if rt.g == nil {
		fn()
		return
	}
	rt.g.AtSync(p, p.Now(), fn)
}

// After runs fn d after the current instant, as the next step of a
// transition begun by AtSync: through a timer process on the single
// kernel, else as a sync point at now+d, with every domain parked.
// Call it only from inside a function AtSync (or After) runs — that is
// the one place where "now" is the same instant on every domain and the
// single kernel has a running process to spawn the timer from. name
// labels the timer process.
func (rt *Runtime) After(name string, d time.Duration, fn func()) {
	if rt.g == nil {
		rt.k.AfterFunc(name, d, func(*sim.Proc) { fn() })
		return
	}
	rt.g.AtSyncAbs(rt.k.Now()+d, fn)
}

// SyncDelay returns how long after an AtSync call its function runs:
// 0 on the single kernel (inline), the lookahead under domains. A
// caller that must not act before the transition it registered sleeps
// this long.
func (rt *Runtime) SyncDelay() time.Duration {
	if rt.g == nil {
		return 0
	}
	return rt.g.SyncDelay()
}

// Demand is one tick's background arrivals for one injector lane, by
// operation class. The classes map onto the priced service kinds of the
// per-model cost tables (GetattrService etc.).
type Demand struct {
	Getattr int64
	Lookup  int64
	Readdir int64
	Create  int64
}

// Total sums the classes.
func (d Demand) Total() int64 { return d.Getattr + d.Lookup + d.Readdir + d.Create }

// PriceTable holds the base per-class service times a server charges.
// Price converts a demand batch into unscaled service time; models
// layer their dynamic factors (WAFL consistency points, journal
// pressure) on top.
type PriceTable struct {
	Getattr time.Duration
	Lookup  time.Duration
	Readdir time.Duration
	Create  time.Duration
}

// Price returns the base service time for one demand batch.
func (t PriceTable) Price(d Demand) time.Duration {
	return time.Duration(d.Getattr)*t.Getattr +
		time.Duration(d.Lookup)*t.Lookup +
		time.Duration(d.Readdir)*t.Readdir +
		time.Duration(d.Create)*t.Create
}

// AggregateConfig wires AttachAggregate to one model's servers.
type AggregateConfig struct {
	// Servers is the injected server count; lanes spawn for servers
	// 0..Servers-1 in order.
	Servers int
	// Lanes is the injector lane count per server (clamped to >= 1);
	// use the server's thread-pool width so injected demand can fill
	// the pool.
	Lanes int
	// Tick is the batching interval (defaults to one second).
	Tick time.Duration
	// Kernel returns the kernel server i's lanes spawn on — the
	// server's own domain (Runtime.KernelFor, or a model-specific
	// placement).
	Kernel func(server int) *sim.Kernel
	// Pool returns server i's client-facing thread pool; each batch
	// occupies one thread for its priced duration.
	Pool func(server int) *sim.Resource
	// Source draws server i's arrivals for one (lane, tick); it is
	// called in strictly increasing tick order per (server, lane) and
	// runs on the server's kernel domain, so per-(server, lane) state
	// must not be shared across servers (internal/agg's
	// replicated-stream design).
	Source func(server, lane, tick int) Demand
	// Price converts one batch into service time, including any
	// dynamic model factor sampled at injection time.
	Price func(server int, d Demand) time.Duration
	// Ops, Shed and Busy are the model's counters: injected operations,
	// operations shed under overload, and cumulative injected service
	// time (as int64 nanoseconds). They are bumped atomically — lanes
	// in different domains run concurrently.
	Ops, Shed, Busy *int64
}

// AttachAggregate starts the background injector: Lanes daemon lanes
// per server, each drawing its (server, lane) stream tick by tick and
// occupying one pool thread for the priced duration. Call before the
// kernel runs; the lanes are daemons, so they never keep a finished
// simulation alive.
//
// Overload is open-loop: a lane that cannot finish a tick's hold before
// later ticks begin shedding the ticks it slept through (Shed). The
// pool therefore saturates at 100% utilization instead of building an
// unbounded virtual queue, which is the admission-control behavior a
// real front end would enforce.
//
// Determinism: lanes touch only their own server's pool and the atomic
// counters, and each (server, lane) draws from a private source stream
// in strict tick order, so runs are byte-identical at any
// Domains/worker count.
func AttachAggregate(cfg AggregateConfig) {
	tick := cfg.Tick
	if tick <= 0 {
		tick = time.Second
	}
	lanes := cfg.Lanes
	if lanes < 1 {
		lanes = 1
	}
	for i := 0; i < cfg.Servers; i++ {
		srv := i
		k := cfg.Kernel(srv)
		for l := 0; l < lanes; l++ {
			lane := l
			name := "agginject:" + strconv.Itoa(srv) + ":" + strconv.Itoa(lane)
			k.SpawnDaemon(name, func(p *sim.Proc) {
				aggLane(p, &cfg, srv, lane, tick)
			})
		}
	}
}

// aggLane is one injector lane's loop. All per-iteration state lives in
// locals and the hold path is Acquire/Sleep/Release on a preallocated
// resource, so the steady state allocates nothing
// (BenchmarkAggregateInject's alloc guard pins this).
func aggLane(p *sim.Proc, cfg *AggregateConfig, srv, lane int, tick time.Duration) {
	pool := cfg.Pool(srv)
	next := 0 // next tick index this lane owes
	for {
		i := int(p.Now() / tick)
		if i < next {
			// Our tick's work is done; park until the next boundary.
			p.Sleep(time.Duration(next)*tick - p.Now())
			i = next
		}
		// Ticks the lane slept through entirely are shed: draw them to
		// keep the source stream index-pure, count them, do not hold.
		for next < i {
			d := cfg.Source(srv, lane, next)
			if n := d.Total(); n > 0 {
				AddI64(cfg.Shed, n)
			}
			next++
		}
		d := cfg.Source(srv, lane, i)
		next = i + 1
		n := d.Total()
		if n == 0 {
			continue
		}
		cost := cfg.Price(srv, d)
		AddI64(cfg.Ops, n)
		AddI64(cfg.Busy, int64(cost))
		if cost > 0 {
			pool.Acquire(p)
			p.Sleep(cost)
			pool.Release()
		}
	}
}

// AddI64 bumps a counter that service bodies increment from several
// domains concurrently. Sums are order-independent, so the totals stay
// deterministic; undomained the atomic op is just an add.
func AddI64(ctr *int64, d int64) { atomic.AddInt64(ctr, d) }

// LoadI64 reads such a counter (safe during a run from any domain).
func LoadI64(ctr *int64) int64 { return atomic.LoadInt64(ctr) }
