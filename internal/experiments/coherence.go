package experiments

import (
	"errors"
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/fault"
	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// The E22–E24 family measures client metadata cache coherence on the
// sharded MDS (internal/shard coherence.go, internal/clientcache
// LeaseCache). The thesis shows client-side caching dominating
// perceived metadata performance and contrasts NFS attribute timeouts
// with AFS-style callbacks (§2.1.2, §4.7.3); MetaFlow and HopsFS show
// that scaling metadata past one server only pays when clients cache
// aggressively under explicit invalidation. E22 sweeps the lease TTL
// (hit rate vs. revocation traffic under Zipf skew), E23 races the
// coherent cache against timeout and uncached clients across shard
// counts, and E24 puts a cached load through PR 3's failover with and
// without crash-time lease invalidation.

// e22Load is the shared coherence stress load: a pool of files every
// rank stats (Zipf-hot) and periodically rewrites. The pool is wide
// enough that a mid-popularity file's per-node revisit interval spans
// the E22 TTL sweep: hot files stay lease-covered at any TTL, cold
// files need a long one.
func e22Load(skew float64) core.StatMutateFiles {
	return core.StatMutateFiles{Files: 640, MutateEvery: 16, Skew: skew}
}

// coherence is the fixed-size Zipf 1.8 stat+mutate measurement of E22
// and E23 on an 8-node x 2-process cluster.
func coherence(seed int64, cfg shard.Config, problem int) measure[*shard.FS] {
	return measure[*shard.FS]{seed: seed, nodes: 8, ppn: 2, fs: shardFS(cfg),
		plugins: []core.Plugin{e22Load(1.8)},
		params:  core.Params{ProblemSize: problem, WorkDir: "/bench"}}
}

// hitRate returns hits/(hits+misses) as a percentage.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

// e22LeaseTTL sweeps the lease TTL under a Zipf-skewed stat+mutate
// load: longer leases convert expiry misses into hits, and what they
// cost is revocation callbacks — every rewrite must chase down more
// live holders — while staleness stays at zero, because a coherent hit
// is revoked before the mutation returns.
func e22LeaseTTL() spec[e22cell] {
	ttls := []time.Duration{25 * time.Millisecond, 100 * time.Millisecond,
		500 * time.Millisecond, 4 * time.Second}
	// One cell per lease TTL, all with the same seed (the E16 sweep
	// discipline: TTL is the only variable).
	var cells []cell[e22cell]
	for _, ttl := range ttls {
		cfg := shard.DefaultConfig(4)
		cfg.CacheMode = shard.CacheLease
		cfg.LeaseTTL = ttl
		cfg.TrackStaleness = true
		cells = append(cells, read(ttl.String(), coherence(2200, cfg, 8000),
			func(m *results.Measurement, fsys *shard.FS) e22cell {
				hits, misses, _, _ := fsys.CacheStats()
				return e22cell{rate: rate(m), hr: hitRate(hits, misses),
					revocations: fsys.Revocations, grants: fsys.LeaseGrants, stale: fsys.StaleReads}
			}))
	}
	return spec[e22cell]{
		id: "E22", title: "Lease TTL sweep: hit rate vs. revocation traffic",
		ref:   "beyond §2.1.2 (callback coherence; MetaFlow/HopsFS direction)",
		cells: cells,
		report: func(r *Report, out []e22cell) {
			var xs, ys, revs []float64
			for i, ttl := range ttls {
				c := out[i]
				xs = append(xs, ttl.Seconds())
				ys = append(ys, c.hr)
				revs = append(revs, float64(c.revocations))
				r.row(fmt.Sprintf("lease %5s: hit rate", ttl), c.hr, "%",
					fmt.Sprintf("%.0f stats/s", c.rate))
				r.row(fmt.Sprintf("lease %5s: revocations", ttl), float64(c.revocations), "",
					fmt.Sprintf("%d grants, %d stale reads", c.grants, c.stale))
			}
			last := len(ttls) - 1
			r.finding("the lease TTL buys hit rate with revocation traffic: %.0f%% -> %.0f%% "+
				"hits from 25ms to 4s leases while callbacks grow %.0f -> %.0f (longer "+
				"leases leave more live holders for every mutation to chase down), and "+
				"stale reads stay at zero at every point — the coherence invariant the "+
				"timeout cache of E23 cannot offer at any TTL",
				ys[0], ys[last], revs[0], revs[last])
			r.Charts = append(r.Charts, charts.Render(
				"Cache hit rate vs. lease TTL (Zipf 1.8 stat+mutate, 4 shards)",
				"lease s", "hit %", chartW, chartH,
				[]charts.Series{{Name: "coherent hits", X: xs, Y: ys}}))
		},
	}
}

// e23CacheModes races the three client cache modes across shard counts
// on the shared stat+mutate load, then pins the hit-rate/staleness
// trade-off at 4 shards. The timeout cache can only reach the coherent
// cache's hit rate by serving stale attributes, and can only reach its
// freshness by shrinking the TTL to nothing — at which point it is no
// cache at all. Adding shards, meanwhile, barely moves a stat-heavy
// load: request latency and client caching dominate, not server count
// (the §4.6 lesson resurfacing at MDS scale).
func e23CacheModes() spec[e23cell] {
	run := func(name string, n int, mode shard.CacheMode, attrTTL time.Duration, seed int64) cell[e23cell] {
		cfg := shard.DefaultConfig(n)
		cfg.CacheMode = mode
		cfg.TrackStaleness = true
		if attrTTL > 0 {
			cfg.AttrTTL = attrTTL
		}
		if mode == shard.CacheLease {
			cfg.LeaseTTL = 30 * time.Second
		}
		return read(name, coherence(seed, cfg, 2000), func(m *results.Measurement, fsys *shard.FS) e23cell {
			hits, misses, _, _ := fsys.CacheStats()
			return e23cell{rate: rate(m), hit: hitRate(hits, misses), stale: fsys.StaleReads}
		})
	}
	shardCounts := []int{1, 2, 4, 8}
	// 13 cells: (lease, ttl, none) per shard count plus the
	// hit-rate-matched TTL cell at 4 shards.
	modes := []struct {
		tag  string
		mode shard.CacheMode
	}{{"lease", shard.CacheLease}, {"ttl", shard.CacheTTL}, {"none", shard.CacheNone}}
	var cells []cell[e23cell]
	for si, n := range shardCounts {
		for mi, m := range modes {
			cells = append(cells, run(fmt.Sprintf("%dshards-%s", n, m.tag),
				n, m.mode, 0, int64(2300+10*si+mi)))
		}
	}
	cells = append(cells, run("4shards-ttl2ms", 4, shard.CacheTTL, 2*time.Millisecond, 2340))
	return spec[e23cell]{
		id: "E23", title: "Coherent vs. timeout vs. no client cache across shard counts",
		ref:   "beyond §4.7.3 (AFS callbacks vs. NFS timeouts, per shard count)",
		cells: cells,
		report: func(r *Report, out []e23cell) {
			var xs, leaseY, ttlY, noneY []float64
			var lease4, ttl4 e23cell
			for i, n := range shardCounts {
				lease, ttl, none := out[3*i], out[3*i+1], out[3*i+2]
				xs = append(xs, float64(n))
				leaseY = append(leaseY, lease.rate)
				ttlY = append(ttlY, ttl.rate)
				noneY = append(noneY, none.rate)
				r.row(fmt.Sprintf("stats/s @ %d shards, lease 30s", n), lease.rate, "ops/s",
					fmt.Sprintf("%.0f%% hits, %d stale", lease.hit, lease.stale))
				r.row(fmt.Sprintf("stats/s @ %d shards, ttl 3s", n), ttl.rate, "ops/s",
					fmt.Sprintf("%.0f%% hits, %d stale", ttl.hit, ttl.stale))
				r.row(fmt.Sprintf("stats/s @ %d shards, no cache", n), none.rate, "ops/s", "")
				if n == 4 {
					lease4, ttl4 = lease, ttl
				}
			}
			// The trade-off pinned at 4 shards: a TTL matched to the hot
			// files' ~2ms mutation interval reaches the coherent cache's
			// hit rate and still serves stale hits, because hot files are
			// revisited faster than they are mutated.
			matched := out[len(out)-1]
			r.row("4 shards: lease 30s hit rate", lease4.hit, "%",
				fmt.Sprintf("%d stale reads", lease4.stale))
			r.row("4 shards: ttl 3s hit rate", ttl4.hit, "%",
				fmt.Sprintf("%d stale reads", ttl4.stale))
			r.row("4 shards: ttl 2ms hit rate", matched.hit, "%",
				fmt.Sprintf("%d stale reads (hit-rate-matched TTL)", matched.stale))
			r.finding("the timeout cache cannot buy freshness with its TTL on a write-shared "+
				"load: at the 3s NFS default it tops the hit rate (%.0f%%) by serving %d "+
				"stale hits, and even shrunk to the ~2ms hot-file mutation interval it "+
				"matches the coherent hit rate (%.0f%% vs %.0f%%) while still serving %d "+
				"stale reads — at equal (zero) staleness its only configuration is no cache "+
				"at all, 0%% hits against the coherent cache's %.0f%%",
				ttl4.hit, ttl4.stale, matched.hit, lease4.hit, matched.stale, lease4.hit)
			r.Charts = append(r.Charts, charts.Render(
				"Stat+mutate throughput vs. shard count by cache mode",
				"shards", "ops/s", chartW, chartH,
				[]charts.Series{
					{Name: "lease 30s", X: xs, Y: leaseY},
					{Name: "ttl 3s", X: xs, Y: ttlY},
					{Name: "no cache", X: xs, Y: noneY},
				}))
		},
	}
}

// e24FailoverCachedLoad puts a lease-cached stat+mutate load through
// the sharded MDS's crash/takeover path. The promoted backup knows
// nothing about the dead primary's leases, so it cannot revoke them:
// without crash-time invalidation every mutation it applies leaves
// stale client hits behind until the leases expire on their own.
// Epoch-based bulk invalidation (Config.CrashInvalidate) closes that
// window to the takeover itself.
func e24FailoverCachedLoad() spec[e24cell] {
	const (
		window    = 16 * time.Second
		crashAt   = 6 * time.Second
		restartAt = 13 * time.Second
	)
	// Two cells: with and without crash-time lease invalidation.
	run := func(seed int64, invalidate bool) func() (e24cell, error) {
		cfg := shard.DefaultConfig(2)
		cfg.Replicate = true
		cfg.CacheMode = shard.CacheLease
		cfg.LeaseTTL = 8 * time.Second
		cfg.TrackStaleness = true
		cfg.CrashInvalidate = invalidate
		plan := (&fault.Plan{}).Outage(crashAt, restartAt, 0)
		m := measure[*shard.FS]{seed: seed, nodes: 8, ppn: 2, fs: shardFS(cfg),
			plugins: []core.Plugin{e22Load(0)},
			params:  core.Params{ProblemSize: 1 << 20, TimeLimit: window, WorkDir: "/bench"},
			hook:    func(_ *cluster.Cluster, fsys *shard.FS, mp *sim.Proc) { plan.Start(mp, fsys) }}
		return func() (c e24cell, err error) {
			if err := plan.Validate(); err != nil {
				return c, err
			}
			set, fsys, err := m.run()
			if err != nil {
				return c, err
			}
			if len(fsys.Takeovers) == 0 {
				return c, errors.New("no takeover recorded")
			}
			c = e24cell{m: set.Measurements[0], takeover: fsys.Takeovers[0], stale: fsys.StaleReads}
			// The stale-read window runs from the crash to the last stale hit.
			if w := fsys.LastStaleAt - c.takeover.CrashAt; fsys.StaleReads > 0 && w > 0 {
				c.window = w
			}
			_, _, _, c.epochDrops = fsys.CacheStats()
			return c, nil
		}
	}
	return spec[e24cell]{
		id: "E24", title: "Failover under cached load: the stale-read window",
		ref: "beyond §4.2 + §2.1.2 (cache coherence across failover)",
		cells: []cell[e24cell]{
			{"invalidate", run(2400, true)},
			{"no-invalidate", run(2401, false)},
		},
		report: func(r *Report, out []e24cell) {
			ic, sc := out[0], out[1]
			r.row("invalidate: takeover latency", ic.takeover.Total().Seconds()*1000, "ms",
				fmt.Sprintf("detect + %d entries replayed", ic.takeover.Entries))
			r.row("invalidate: stale reads", float64(ic.stale), "", "epoch check on every hit")
			r.row("invalidate: stale-read window", ic.window.Seconds(), "s", "")
			r.row("invalidate: leases bulk-dropped", float64(ic.epochDrops), "", "epoch moves observed by clients")
			r.row("no invalidate: takeover latency", sc.takeover.Total().Seconds()*1000, "ms", "")
			r.row("no invalidate: stale reads", float64(sc.stale), "",
				"no serving change can revoke its predecessor's leases")
			r.row("no invalidate: stale-read window", sc.window.Seconds(), "s",
				fmt.Sprintf("takeover and failback each leak up to the %s lease TTL", 8*time.Second))
			r.finding("failover without lease invalidation leaks staleness: neither the "+
				"promoted backup (crash at 6s) nor the restarted primary (failback at 13s) "+
				"can revoke leases its predecessor granted, so mutations they serve leave "+
				"clients trusting dead leases — a %.1fs stale window, %d stale reads, each "+
				"leak bounded only by the 8s lease TTL. Crash-time epoch invalidation "+
				"shrinks the window to %.1fs (%d stale reads) at the same %.0fms takeover "+
				"latency",
				sc.window.Seconds(), sc.stale,
				ic.window.Seconds(), ic.stale,
				ic.takeover.Total().Seconds()*1000)
			r.Charts = append(r.Charts,
				"lease cache + crash-time invalidation, crash at 6s, restart at 13s\n"+
					charts.TimeChart(ic.m, chartW, chartH),
				"lease cache without invalidation, same fault plan\n"+
					charts.TimeChart(sc.m, chartW, chartH))
		},
	}
}

// e22cell is one E22 run: stat throughput, hit rate and lease traffic.
type e22cell struct {
	rate, hr                   float64
	revocations, grants, stale int64
}

// e23cell is one E23 run: stat throughput, hit rate and stale reads.
type e23cell struct {
	rate, hit float64
	stale     int64
}

// e24cell is one E24 run: its measurement, the first takeover, and the
// staleness it leaked — stale reads, the window from the crash to the
// last of them, and the leases clients dropped on an epoch move.
type e24cell struct {
	m          *results.Measurement
	takeover   shard.Takeover
	stale      int64
	window     time.Duration
	epochDrops int64
}
