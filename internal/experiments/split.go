package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/fs"
	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// The E25–E27 family measures dynamic giant-directory splitting
// (internal/shard split.go, the GIGA+ direction). The thesis shows
// metadata throughput collapsing in large directories (§4.3.3), and the
// sharded MDS reintroduces exactly that wall at shard granularity:
// hash-of-parent placement pins a million-file directory — the mdtest
// shared-directory pattern — to one shard, so E16's scaling never helps
// E08's workload. E25 shows the wall falling once splitting spreads the
// directory; E26 prices the split storms the cure costs, in the §4.2
// interval timeline; E27 prices routing on a stale client bitmap and
// the fan-out a split listing pays.

// e25Cfg returns an n-shard configuration with splitting on (threshold
// entries per partition) or off (threshold 0).
func e25Cfg(n, threshold int) shard.Config {
	cfg := shard.DefaultConfig(n)
	cfg.SplitThreshold = threshold
	return cfg
}

// e25SplitScaling sweeps the shard count under the mdtest
// shared-directory pattern with splitting off and on: without it, every
// create of the one shared directory serializes on the directory's home
// shard and the curve stays flat no matter how many shards exist — the
// §4.3.3 wall at shard granularity; with it, the directory spreads as
// it grows and the same workload scales with the cluster.
func e25SplitScaling() spec[e25cell] {
	shardsSwept := []int{1, 2, 4, 8, 16}
	// One cell per (shard count, splitting on/off) pair — 10 runs, one
	// seed for all of them; 250 files per process, 64 processes = 16k
	// files in one directory.
	var cells []cell[e25cell]
	for _, n := range shardsSwept {
		for _, threshold := range []int{0, 512} {
			name := fmt.Sprintf("%dshards-off", n)
			if threshold > 0 {
				name = fmt.Sprintf("%dshards-on", n)
			}
			cells = append(cells, read(name, wide(2500, e25Cfg(n, threshold), core.WideDirFiles{}, 250),
				func(m *results.Measurement, fsys *shard.FS) e25cell {
					return e25cell{rate(m), len(fsys.Splits), fsys.SplitMoved, fsys.Bounces}
				}))
		}
	}
	return spec[e25cell]{
		id: "E25", title: "Giant-directory splitting: one shared directory vs. shard count",
		ref:   "beyond §4.3.3 (the large-directory wall; GIGA+/HopsFS direction)",
		cells: cells,
		report: func(r *Report, out []e25cell) {
			var xs, offY, onY []float64
			var off8, on8 float64
			for i, n := range shardsSwept {
				off, on := out[2*i].rate, out[2*i+1].rate
				onRun := out[2*i+1]
				xs = append(xs, float64(n))
				offY = append(offY, off)
				onY = append(onY, on)
				if n == 8 {
					off8, on8 = off, on
				}
				r.row(fmt.Sprintf("creates/s @ %2d shards, split off", n), off, "ops/s", "")
				r.row(fmt.Sprintf("creates/s @ %2d shards, split on", n), on, "ops/s",
					fmt.Sprintf("%d splits, %d entries moved, %d bounces",
						onRun.splits, onRun.moved, onRun.bounces))
			}
			r.row("split advantage @ 8 shards", on8/off8, "x", "threshold 512")
			r.row("split off: speedup 1->16 shards", offY[len(offY)-1]/offY[0], "x", "one directory, one shard")
			r.row("split on: speedup 1->16 shards", onY[len(onY)-1]/onY[0], "x", "")
			r.finding("one shared directory defeats per-directory placement: with splitting "+
				"off, adding shards moves creates/s %.2fx from 1 to 16 shards (all load "+
				"serializes on the directory's home shard); with GIGA+-style splitting the "+
				"same workload scales %.2fx, and at 8 shards splitting wins %.1fx — the "+
				"§4.3.3 large-directory wall falling at MDS granularity",
				offY[len(offY)-1]/offY[0], onY[len(onY)-1]/onY[0], on8/off8)
			r.Charts = append(r.Charts, charts.Render(
				"Shared-directory create throughput vs. shard count (64 processes)",
				"shards", "ops/s", chartW, chartH,
				[]charts.Series{
					{Name: "split on (thresh 512)", X: xs, Y: onY},
					{Name: "split off", X: xs, Y: offY},
				}))
		},
	}
}

// e25cell is one E25 run: creates/s, split steps, entries they moved
// and misrouted RPCs.
type e25cell struct {
	rate           float64
	splits         int
	moved, bounces int64
}

// timeline is a timed run placed on its own interval timeline: its
// measurement, the virtual time its bench phase started, and the
// server-side events (splits, compactions) to place on it.
type timeline struct {
	m           *results.Measurement
	start       time.Duration
	splits      []shard.SplitEvent
	moved       int64
	compactions []shard.CompactionEvent
}

// timed is the timed 8-node x 2-process shape of E26 and E29: plugin
// runs for window on the sharded MDS cfg configures, in dir.
func timed(seed int64, cfg shard.Config, plugin core.Plugin, dir string, window time.Duration) func() (timeline, error) {
	return func() (t timeline, err error) {
		m := measure[*shard.FS]{seed: seed, nodes: 8, ppn: 2, fs: shardFS(cfg),
			plugins: []core.Plugin{plugin},
			params:  core.Params{ProblemSize: 1 << 20, TimeLimit: window, WorkDir: dir},
			hook:    func(_ *cluster.Cluster, _ *shard.FS, mp *sim.Proc) { t.start = mp.Now() }}
		set, fsys, err := m.run()
		if err != nil {
			return t, err
		}
		t.m, t.splits, t.moved, t.compactions = set.Measurements[0], fsys.Splits, fsys.SplitMoved, fsys.Compactions
		return t, nil
	}
}

// e26SplitStorm watches the interval timeline while a growing shared
// directory crosses its split threshold repeatedly: each split step
// blocks the triggering create for the whole migration, so the timeline
// shows a throughput dip and a COV spike per split — the §4.2
// disturbance shape, but self-inflicted by the cure. The threshold
// trades storm count against storm size: a small threshold splits
// early and cheaply, a large one late and violently.
func e26SplitStorm() spec[timeline] {
	const window = 12 * time.Second
	// One cell per split threshold.
	thresholds := []int{512, 2048, 8192}
	var cells []cell[timeline]
	for i, threshold := range thresholds {
		cells = append(cells, cell[timeline]{fmt.Sprintf("thresh%d", threshold),
			timed(int64(2600+i), e25Cfg(8, threshold), core.WideDirFiles{}, "/", window)})
	}
	return spec[timeline]{
		id: "E26", title: "Split-storm cost: migration dips vs. split threshold",
		ref:   "beyond §4.2 + §4.3.4 (self-inflicted disturbances in the timeline)",
		cells: cells,
		report: func(r *Report, out []timeline) {
			var chartsOut []string
			var firstDip, lastDip, lastCOV float64
			var lastStorm int
			for i, threshold := range thresholds {
				m, start := out[i].m, out[i].start
				// The deepest single-interval dip across all split
				// instants, each against the steady state of the second
				// before its split (the run ramps up early, so a global
				// baseline would hide the storm), plus the worst COV
				// spike in the second after.
				var cov float64
				dip := 1.0
				for _, ev := range out[i].splits {
					at := ev.At - start
					from := at - time.Second
					if from < 0 {
						from = 0
					}
					base := windowThroughput(m, from, at)
					during, ok := minThroughput(m, at, at+600*time.Millisecond)
					if ok && base > 0 && during/base < dip {
						dip = during / base
					}
					if c := maxCOV(m, at, at+time.Second); c > cov {
						cov = c
					}
				}
				r.row(fmt.Sprintf("threshold %5d: creates/s", threshold), rate(m), "ops/s",
					fmt.Sprintf("%d splits, %d entries moved", len(out[i].splits), out[i].moved))
				r.row(fmt.Sprintf("threshold %5d: deepest split dip", threshold), dip*100, "%",
					"worst interval within 600ms of a split vs. the second before it")
				r.row(fmt.Sprintf("threshold %5d: max COV after split", threshold), cov, "", "")
				if i == 0 {
					firstDip = dip
				}
				storm := 0
				for _, ev := range out[i].splits {
					if ev.Moved > storm {
						storm = ev.Moved
					}
				}
				lastDip, lastCOV, lastStorm = dip, cov, storm
				if threshold == 8192 {
					chartsOut = append(chartsOut,
						fmt.Sprintf("shared-directory creates, splitting at %d entries/partition\n", threshold)+
							charts.TimeChart(m, chartW, chartH))
				}
			}
			r.finding("splitting is a self-inflicted disturbance with a tunable shape: at "+
				"threshold 512 the migrations are too small to dent a 100ms interval "+
				"(worst dip %.0f%% of baseline), while threshold 8192 defers the same work "+
				"into a single storm of %d moved entries that craters one interval to "+
				"%.0f%% with a COV spike of %.2f — the §4.2 disturbance signature, "+
				"self-inflicted, and the checkpoint-cadence trade-off of §2.7 applied to "+
				"directory radix doubling", firstDip*100, lastStorm, lastDip*100, lastCOV)
			r.Charts = append(r.Charts, chartsOut...)
		},
	}
}

// e27SplitRouting prices the client's split bitmap: a stale or missing
// bitmap routes to the wrong shard and pays a bounce (one extra
// redirect round trip). Every server reply piggybacks the current
// level (the GIGA+ discipline), so a client actively working in a
// directory stays fresh for free — the TTL matters when the client
// comes back after a gap: expired bitmaps route as if the directory
// were unsplit and almost always bounce once per revisit. Under
// CacheLease the bitmap rides the directory's lease instead and
// survives idle gaps up to the lease TTL. The second half prices what
// a listing pays once a directory is split: the readdir fans out over
// every partition slice and merges.
func e27SplitRouting() spec[e27cell] {
	const (
		readers = 4
		rounds  = 40
		gap     = 200 * time.Millisecond // idle time between revisit bursts
		pool    = 3000
	)
	// probeBounce builds a split directory, then has each reader client
	// revisit it in bursts separated by idle gaps; between bursts the
	// bitmap can only survive on its TTL (or its lease).
	probeBounce := func(mode shard.CacheMode, bitmapTTL time.Duration) (c e27cell, err error) {
		cfg := e25Cfg(8, 256)
		cfg.CacheMode = mode
		if bitmapTTL > 0 {
			cfg.SplitBitmapTTL = bitmapTTL
		}
		k := sim.New(2701)
		cl := cluster.New(k, cluster.DefaultConfig(readers+1))
		fsys := newShardFS(k, "meta", cfg)
		err = runProc(k, "probe", func(p *sim.Proc) error {
			loader := fsys.NewClient(cl.Nodes[0], p)
			if err := loader.Mkdir("/big"); err != nil {
				return err
			}
			for i := 0; i < pool; i++ {
				if err := loader.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
					return err
				}
			}
			clients := make([]fs.Client, readers)
			for j := range clients {
				clients[j] = fsys.NewClient(cl.Nodes[j+1], p)
			}
			start := fsys.Bounces
			for round := 0; round < rounds; round++ {
				for j, rd := range clients {
					for i := 0; i < 8; i++ {
						// Fresh names every burst, so the stat is never
						// an attribute-cache hit and routing really runs.
						n := (round*8 + i + j*751) % pool
						if _, err := rd.Stat(fmt.Sprintf("/big/f%d", n)); err != nil {
							return err
						}
						c.stats++
					}
				}
				p.Sleep(gap)
			}
			c.bounces = fsys.Bounces - start
			return nil
		})
		if err != nil {
			return c, err
		}
		hits, misses, _ := fsys.SplitBitmapStats()
		if hits+misses > 0 {
			c.hitRate = 100 * float64(hits) / float64(hits+misses)
		}
		return c, nil
	}
	ttls := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		500 * time.Millisecond, 10 * time.Second}
	// The fan-out price of listing a split directory: one client, one
	// 4000-entry directory, listed split (8 partition slices merged) and
	// unsplit (one readdir on the home shard).
	probe := func(threshold int) (e27cell, error) {
		k := sim.New(2750)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := newShardFS(k, "meta", e25Cfg(8, threshold))
		var avg time.Duration
		err := runProc(k, "probe", func(p *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], p)
			if err := c.Mkdir("/big"); err != nil {
				return err
			}
			for i := 0; i < 4000; i++ {
				if err := c.Create(fmt.Sprintf("/big/f%d", i)); err != nil {
					return err
				}
			}
			const ops = 50
			start := p.Now()
			for i := 0; i < ops; i++ {
				if _, err := c.ReadDir("/big"); err != nil {
					return err
				}
			}
			avg = (p.Now() - start) / ops
			return nil
		})
		return e27cell{avg: avg, parts: 1 << fsys.SplitLevel("/big")}, err
	}
	// Seven cells: the four TTL bounce probes, the lease bounce probe and
	// the two readdir fan-out probes, each on its own kernel.
	var cells []cell[e27cell]
	for _, ttl := range ttls {
		cells = append(cells, cell[e27cell]{"bitmap-ttl-" + ttl.String(),
			func() (e27cell, error) { return probeBounce(shard.CacheTTL, ttl) }})
	}
	cells = append(cells,
		cell[e27cell]{"lease-mode", func() (e27cell, error) { return probeBounce(shard.CacheLease, 0) }},
		cell[e27cell]{"readdir-unsplit", func() (e27cell, error) { return probe(0) }},
		cell[e27cell]{"readdir-split", func() (e27cell, error) { return probe(256) }})
	return spec[e27cell]{
		id: "E27", title: "Split-bitmap staleness: bounce rate vs. TTL, and the readdir fan-out",
		ref:   "beyond §2.1.2 (routing-hint caching; GIGA+ stale-bitmap tolerance)",
		cells: cells,
		report: func(r *Report, out []e27cell) {
			var xs, ys []float64
			for i, ttl := range ttls {
				c := out[i]
				perRound := float64(c.bounces) / float64(rounds*readers)
				xs = append(xs, ttl.Seconds())
				ys = append(ys, perRound)
				r.row(fmt.Sprintf("bitmap ttl %5s: bounces/revisit", ttl), perRound, "",
					fmt.Sprintf("%d bounces over %d stats, %.0f%% bitmap hits, %s gaps",
						c.bounces, c.stats, c.hitRate, gap))
			}
			lease := out[len(ttls)]
			leasePerRound := float64(lease.bounces) / float64(rounds*readers)
			r.row("lease mode: bounces/revisit", leasePerRound, "",
				fmt.Sprintf("%d bounces, %.0f%% bitmap hits; the bitmap rides the %s directory lease",
					lease.bounces, lease.hitRate, shard.DefaultConfig(8).LeaseTTL))

			flatAvg := out[len(ttls)+1].avg
			splitAvg, parts := out[len(ttls)+2].avg, out[len(ttls)+2].parts
			r.row("readdir 4000 entries, unsplit", float64(flatAvg.Microseconds()), "us", "one shard")
			r.row(fmt.Sprintf("readdir 4000 entries, %d partitions", parts),
				float64(splitAvg.Microseconds()), "us", "fan-out + merge")
			r.row("fan-out penalty", float64(splitAvg)/float64(flatAvg), "x", "")
			r.finding("the split bitmap is a routing hint, so staleness costs bounces, never "+
				"correctness: a bitmap outlived by the %s idle gap routes as if the "+
				"directory were unsplit and pays %.2f bounces per revisit, falling to %.2f "+
				"once the TTL covers the gap — one redirect per burst at worst — while "+
				"lease mode rides the directory lease across gaps at %.2f; the flip side "+
				"of spreading a directory is that one listing becomes %d merged partition "+
				"reads, %.1fx an unsplit readdir",
				gap, ys[0], ys[len(ys)-1], leasePerRound, parts, float64(splitAvg)/float64(flatAvg))
			r.Charts = append(r.Charts, charts.Render(
				"Routing bounces per revisit vs. split-bitmap TTL (8 shards, threshold 256)",
				"ttl s", "bounces/revisit", chartW, chartH,
				[]charts.Series{{Name: "ttl mode", X: xs, Y: ys}}))
		},
	}
}

// e27cell is one E27 probe: a bounce count over a revisit run, or the
// mean readdir latency of a directory and its partition count.
type e27cell struct {
	bounces int64
	stats   int
	hitRate float64
	avg     time.Duration
	parts   int
}
