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

// The E19–E21 family injects server failures into the sharded MDS model
// (internal/fault driving internal/shard's primary/backup replication).
// The thesis only measures healthy systems, but its COV-based
// time-interval methodology (§3.2.5, §4.2) is exactly the instrument
// that exposes what a crash does to throughput over time; StoreTorrent
// and HopsFS motivate analyzing fault tolerance and metadata
// performance together. E19 shows the failure in the timeline, E20
// prices the replication that bounds it, and E21 scales the recovery
// itself.

// outageSeconds sums the sampling intervals between from and to whose
// throughput fell below frac of baseline — the measured service-outage
// window.
func outageSeconds(m *results.Measurement, baseline, frac float64, from, to time.Duration) time.Duration {
	var n int
	for _, r := range m.Summary() {
		if r.T > from && r.T <= to && r.Throughput < frac*baseline {
			n++
		}
	}
	return time.Duration(n) * m.Interval
}

// e19FailoverTimeline crashes one of two shards mid-run and watches the
// interval timeline: without replication the slice goes dark until the
// scheduled restart and every worker that routes to it stalls in retry
// backoff; with a synchronous backup the outage collapses to the
// detection delay plus journal replay. The crash is visible exactly the
// way §4.2's disturbances are: a throughput dip with a COV spike, then
// a recovery ramp.
func e19FailoverTimeline() spec[e19cell] {
	const (
		window    = 20 * time.Second
		crashAt   = 6 * time.Second
		restartAt = 14 * time.Second
	)
	// Two cells, the unreplicated and the replicated run, each a timed
	// MakeFiles run on 8 nodes x 2 processes with its own kernel and
	// fault-plan instance.
	run := func(seed int64, replicate bool) func() (e19cell, error) {
		cfg := shard.DefaultConfig(2)
		cfg.Replicate = replicate
		plan := (&fault.Plan{}).Outage(crashAt, restartAt, 0)
		m := measure[*shard.FS]{seed: seed, nodes: 8, ppn: 2, fs: shardFS(cfg),
			plugins: []core.Plugin{core.MakeFiles{}},
			params:  core.Params{ProblemSize: 1000, TimeLimit: window, WorkDir: "/bench"},
			hook:    func(_ *cluster.Cluster, fsys *shard.FS, mp *sim.Proc) { plan.Start(mp, fsys) }}
		return func() (e19cell, error) {
			if err := plan.Validate(); err != nil {
				return e19cell{}, err
			}
			set, fsys, err := m.run()
			if err != nil {
				return e19cell{}, err
			}
			return e19cell{set.Measurements[0], fsys.Takeovers}, nil
		}
	}
	return spec[e19cell]{
		id: "E19", title: "Failover timeline: mid-run shard crash, single vs. replicated",
		ref: "beyond §4.2 (fault injection; HopsFS/StoreTorrent direction)",
		cells: []cell[e19cell]{
			{"single", run(1900, false)},
			{"replicated", run(1901, true)},
		},
		report: func(r *Report, out []e19cell) {
			single, repl, takeovers := out[0].m, out[1].m, out[1].takeovers
			base := windowThroughput(single, 2*time.Second, crashAt)
			baseR := windowThroughput(repl, 2*time.Second, crashAt)
			durS := windowThroughput(single, crashAt, restartAt)
			durR := windowThroughput(repl, crashAt, restartAt)
			afterS := windowThroughput(single, 16*time.Second, window)
			outS := outageSeconds(single, base, 0.1, crashAt, window)
			outR := outageSeconds(repl, baseR, 0.1, crashAt, window)
			covBeforeS := maxCOV(single, 2*time.Second, crashAt)
			covCrashS := maxCOV(single, crashAt, restartAt+2*time.Second)
			covCrashR := maxCOV(repl, crashAt, restartAt+2*time.Second)

			r.row("single: creates/s before crash", base, "ops/s", "t=2..6s, 2 shards")
			r.row("single: creates/s during outage", durS, "ops/s", "t=6..14s, shard 0 dark")
			r.row("single: creates/s after restart", afterS, "ops/s", "t=16..20s")
			r.row("single: outage window", outS.Seconds(), "s", "<10% of baseline")
			r.row("single: max COV before crash", covBeforeS, "", "")
			r.row("single: max COV around crash", covCrashS, "", "stalled vs. surviving workers")
			r.row("repl: creates/s before crash", baseR, "ops/s", "synchronous backup on")
			r.row("repl: creates/s during crash window", durR, "ops/s",
				"backup serving slice 0; mirroring suspended while the partner is down")
			r.row("repl: outage window", outR.Seconds(), "s", "<10% of baseline")
			r.row("repl: max COV around crash", covCrashR, "", "")
			if len(takeovers) > 0 {
				to := takeovers[0]
				r.row("repl: takeover latency", to.Total().Seconds()*1000, "ms",
					fmt.Sprintf("detect %.0fms + replay %d entries", to.Detect.Seconds()*1000, to.Entries))
			}
			r.finding("a crash is a §4.2 disturbance: the single run dips %.0f -> %.0f ops/s "+
				"with COV %.2f -> %.2f and stays degraded for %.1fs until restart+recovery, "+
				"while the replicated run's backup takes over and bounds the outage to %.1fs "+
				"at a steady-state cost of %.0f vs %.0f ops/s",
				base, durS, covBeforeS, covCrashS, outS.Seconds(), outR.Seconds(), baseR, base)
			r.Charts = append(r.Charts,
				"single shard pair (no replication), crash at 6s, restart at 14s\n"+charts.TimeChart(single, chartW, chartH),
				"replicated pair, same fault plan\n"+charts.TimeChart(repl, chartW, chartH))
		},
	}
}

// e20ReplicationOverhead prices the insurance: the same create workload
// across shard counts with and without a synchronous backup mirror.
// Every file mutation pays one interconnect round trip and backup-side
// service before its RPC returns — throughput drops by that margin, the
// cost of the bounded outage E19 shows.
func e20ReplicationOverhead() spec[e20cell] {
	shardCounts := []int{2, 4, 8}
	// One cell per (shard count, replication) pair — 6 independent runs.
	var cells []cell[e20cell]
	for _, n := range shardCounts {
		for _, replicate := range []bool{false, true} {
			cfg := shard.DefaultConfig(n)
			cfg.Replicate = replicate
			name := fmt.Sprintf("%dshards-plain", n)
			if replicate {
				name = fmt.Sprintf("%dshards-repl", n)
			}
			cells = append(cells, read(name, wide(2000, cfg, e16Workload(0), 400),
				func(m *results.Measurement, fsys *shard.FS) e20cell {
					return e20cell{rate(m), fsys.MirrorCount}
				}))
		}
	}
	return spec[e20cell]{
		id: "E20", title: "Replication overhead: creates/s with and without a synchronous backup",
		ref:   "beyond §4.3 (cost of HopsFS-style availability)",
		cells: cells,
		report: func(r *Report, out []e20cell) {
			var xs, plainY, replY []float64
			for i, n := range shardCounts {
				plain, repl := out[2*i], out[2*i+1]
				xs = append(xs, float64(n))
				plainY = append(plainY, plain.rate)
				replY = append(replY, repl.rate)
				r.row(fmt.Sprintf("creates/s @ %d shards, plain", n), plain.rate, "ops/s", "")
				r.row(fmt.Sprintf("creates/s @ %d shards, replicated", n), repl.rate, "ops/s",
					fmt.Sprintf("%d mirrors", repl.mirrors))
				r.row(fmt.Sprintf("replication cost @ %d shards", n), 100*(1-repl.rate/plain.rate), "%", "")
			}
			last := len(xs) - 1
			r.finding("synchronous backup mirroring costs %.0f%%..%.0f%% of create throughput "+
				"across 2..8 shards (every mutation pays an interconnect round trip before "+
				"returning) — the premium for the bounded outage window of E19",
				100*(1-replY[0]/plainY[0]), 100*(1-replY[last]/plainY[last]))
			r.Charts = append(r.Charts, charts.Render(
				"Create throughput vs. shard count, with/without synchronous backup",
				"shards", "ops/s", chartW, chartH,
				[]charts.Series{
					{Name: "plain", X: xs, Y: plainY},
					{Name: "replicated", X: xs, Y: replY},
				}))
		},
	}
}

// e19cell is one E19 run: its measurement and the takeovers it saw.
type e19cell struct {
	m         *results.Measurement
	takeovers []shard.Takeover
}

// e20cell is one E20 run: creates/s and mirrored mutations.
type e20cell struct {
	rate    float64
	mirrors int64
}

// e21RecoveryScaling measures what a takeover costs as the crashed
// shard's journal grows: the backup must replay every dirty entry
// before serving, so promotion latency rises linearly from the
// detection floor. The client-observed outage tracks it plus the retry
// grid the client happens to land on.
func e21RecoveryScaling() spec[e21cell] {
	probe := func(files int) (c e21cell, err error) {
		cfg := shard.DefaultConfig(2)
		cfg.Replicate = true
		cfg.JournalCap = 1 << 20                   // uncapped for the sweep: the journal is the variable
		cfg.ReplayPerEntry = 50 * time.Microsecond // slow store: replay dominates past ~4k entries
		k := sim.New(2100)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := newShardFS(k, "meta", cfg)
		// Find a directory whose files (and itself) live on shard 0.
		dir := ""
		for i := 0; i < 256; i++ {
			cand := fmt.Sprintf("/d%d", i)
			if fsys.ShardOfDir(cand) == 0 {
				dir = cand
				break
			}
		}
		if dir == "" {
			return c, errors.New("no directory on shard 0")
		}
		err = runProc(k, "probe", func(p *sim.Proc) error {
			client := fsys.NewClient(cl.Nodes[0], p)
			if err := client.Mkdir(dir); err != nil {
				return err
			}
			for i := 0; i < files; i++ {
				if err := client.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
					return err
				}
			}
			fsys.Crash(p, 0)
			start := p.Now()
			if err := client.Create(dir + "/after-crash"); err != nil {
				return err
			}
			c.observed = p.Now() - start
			return nil
		})
		if err != nil {
			return c, err
		}
		if len(fsys.Takeovers) != 1 {
			return c, fmt.Errorf("%d takeovers, want 1", len(fsys.Takeovers))
		}
		c.to = fsys.Takeovers[0]
		return c, nil
	}
	// One probe cell per journal length.
	fileCounts := []int{0, 1000, 4000, 16000}
	var cells []cell[e21cell]
	for _, files := range fileCounts {
		cells = append(cells, cell[e21cell]{fmt.Sprintf("%dfiles", files),
			func() (e21cell, error) { return probe(files) }})
	}
	return spec[e21cell]{
		id: "E21", title: "Recovery-time scaling: takeover latency vs. journal length",
		ref:   "beyond §4.8 (journal replay on failover)",
		cells: cells,
		report: func(r *Report, out []e21cell) {
			var xs, ys []float64
			var floor, top time.Duration
			for i, files := range fileCounts {
				to, observed := out[i].to, out[i].observed
				if files == 0 {
					floor = to.Total()
				}
				top = to.Total()
				xs = append(xs, float64(to.Entries))
				ys = append(ys, to.Total().Seconds()*1000)
				r.row(fmt.Sprintf("takeover @ %5d dirty entries", to.Entries),
					to.Total().Seconds()*1000, "ms",
					fmt.Sprintf("client saw %.0fms", observed.Seconds()*1000))
			}
			r.row("detection floor", floor.Seconds()*1000, "ms", "lease expiry, empty journal")
			r.finding("takeover latency rises linearly with the dirty journal: from the "+
				"%.0fms detection floor to %.0fms at %.0fk entries — bounding the journal "+
				"(checkpoint cadence) is what bounds failover, the WAFL/ldiskfs replay "+
				"trade-off of §2.7/§4.8 resurfacing at the MDS level",
				floor.Seconds()*1000, top.Seconds()*1000, xs[len(xs)-1]/1000)
			r.Charts = append(r.Charts, charts.Render(
				"Takeover latency vs. journal entries replayed",
				"entries", "ms", chartW, chartH,
				[]charts.Series{{Name: "detect+replay", X: xs, Y: ys}}))
		},
	}
}

// e21cell is one E21 probe: the takeover and the outage the client saw.
type e21cell struct {
	to       shard.Takeover
	observed time.Duration
}
