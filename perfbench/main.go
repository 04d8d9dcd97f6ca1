// Command perfbench is the simulator's benchmark. It runs one named
// workload on the simulator's public APIs (core.Runner over the nfs,
// lustre and shard models), checks the simulated output, and prints
// the host cost of producing it: end-to-end metrics from untraced
// runs, or per-layer metrics from traced ones. See README.md.
//
//	perfbench --workload nfs-paper --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && flag.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		os.Exit(2)
	}

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *trace == 1 {
		path := filepath.Join(".bench_build", "spans", w.name+".tsv.gz")
		if err := res.spans.writeSpans(path, res.spanEnd); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s\n", path)
	}
	for _, p := range res.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	spans    *recorder // of the last traced rep
	spanEnd  time.Duration
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// measure runs the workload for budget host time. Ten untimed reps
// warm the process up (first-touch page faults, runtime set-up).
// Untraced, every later rep is plain. Traced, the first two fifths of
// the budget run plain reps (for the host counters and the overhead
// baseline), the next two run CPU-profiled reps, and one
// allocation-profiled rep ends the run. Every rep after the warm-up is
// preceded by one pass of the reference loop (calib.go).
func measure(w workloadDef, seed int64, budget time.Duration, traced bool, o options) (*result, error) {
	start := time.Now()
	// Finished simulations leave goroutines (and what they reference)
	// behind, so the process grows with every rep, as it does when the
	// experiment suite runs many cells in one process. The untimed
	// warm-up reps double as the fixed number of simulations the peak
	// RSS is read after, so it counts what they leave behind but not
	// how many reps the host had time for.
	warmReps := make([]*rep, 10)
	for i := range warmReps {
		r, err := runRep(w, seed, o, plain)
		if err != nil {
			return nil, err
		}
		warmReps[i] = r
	}
	peakRSS := peakRSSMB()
	warm := warmReps[len(warmReps)-1]
	ref := newRefLoop()
	run := func(reps *[]*rep, m mode, until time.Duration) error {
		for len(*reps) == 0 || time.Since(start) < until {
			t := ref.run()
			r, err := runRep(w, seed, o, m)
			if err != nil {
				return err
			}
			r.ref = t
			*reps = append(*reps, r)
		}
		return nil
	}
	var plainReps, cpuReps, allocReps []*rep
	if !traced {
		if err := run(&plainReps, plain, budget); err != nil {
			return nil, err
		}
	} else {
		if err := run(&plainReps, plain, budget*2/5); err != nil {
			return nil, err
		}
		if err := run(&cpuReps, cpuProfiled, budget*4/5); err != nil {
			return nil, err
		}
		if err := run(&allocReps, allocProfiled, 0); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metric{}}
	all := append(append(append(warmReps, plainReps...), cpuReps...), allocReps...)
	var completed int64
	for i, r := range all {
		res.Attempted += r.planned
		completed += r.model.Completed
		res.problems = append(res.problems, r.problems...)
		if r.model != all[0].model {
			res.problems = append(res.problems, fmt.Sprintf("rep %d simulated %+v, rep 0 %+v", i, r.model, all[0].model))
		}
	}
	res.Failed = res.Attempted - completed
	if traced && cpuReps[0].lat != allocReps[0].lat {
		res.problems = append(res.problems, fmt.Sprintf("traced reps disagree on latencies: %+v vs %+v",
			cpuReps[0].lat, allocReps[0].lat))
	}
	res.Correct = len(res.problems) == 0

	ms := all[0].model
	ops := ms.ClientOps
	// slowness is how much slower than nominal the host ran this time.
	slowness := medianOf(plainReps, func(r *rep) float64 { return r.ref.Seconds() }) / refNominal.Seconds()
	wallOps := medianOf(plainReps, func(r *rep) float64 { return float64(ops) / r.wall.Seconds() })
	setup := medianOf(plainReps, func(r *rep) float64 { return r.setup.Seconds() })
	if !traced {
		res.set("sim_ops_per_s", wallOps*slowness, "1/s")
		res.set("setup_s", setup/slowness, "s")
		res.set("allocs_per_op", medianOf(plainReps, func(r *rep) float64 { return perOp(float64(r.allocs), ops) }), "count")
		res.set("alloc_bytes_per_op", medianOf(plainReps, func(r *rep) float64 { return perOp(float64(r.bytes), ops) }), "B")
		res.set("peak_rss_mb", peakRSS, "MB")
		res.set("completed_frac", ratio(float64(completed), float64(res.Attempted)), "ratio")
		return res, nil
	}

	res.set("host.ref_loop_ms", slowness*float64(refNominal)/float64(time.Millisecond), "ms")
	res.set("host.wall_sim_ops_per_s", wallOps, "1/s")
	res.set("host.wall_setup_s", setup, "s")
	kops := float64(ops) / 1000
	res.set("sim.events_per_op", perOp(float64(ms.Events), ops), "count")
	res.set("sim.host_ns_per_event", medianOf(plainReps, func(r *rep) float64 {
		return perOp(float64(r.wall.Nanoseconds()), ms.Events)
	}), "ns")
	res.set("sim.windows_per_kop", ratio(float64(ms.Windows), kops), "count")
	res.set("sim.events_per_window", ratio(float64(ms.Events), float64(ms.Windows)), "count")
	res.set("sim.headroom", ratio(float64(ms.Events), float64(ms.Busiest)), "x")
	res.set("runtime.gc_cycles_per_kop", medianOf(plainReps, func(r *rep) float64 {
		return ratio(float64(r.gcCycles), kops)
	}), "count")
	res.set("runtime.cpu_per_wall", medianOf(plainReps, func(r *rep) float64 {
		return ratio(r.cpu.Seconds(), r.wall.Seconds())
	}), "ratio")
	last, runs := plainReps[len(plainReps)-1], float64(len(plainReps))
	res.set("sim.leaked_goroutines_per_run", (float64(last.goroutines)-float64(warm.goroutines))/runs, "count")
	res.set("sim.retained_kb_per_run", (float64(last.live)-float64(warm.live))/runs/1024, "KB")

	cpuNs := map[string]int64{}
	var profiled, gc, cpu int64
	for _, r := range cpuReps {
		for l, ns := range r.profile {
			cpuNs[l] += ns
			profiled += ns
		}
		gc += r.gcNs
		cpu += r.cpu.Nanoseconds()
	}
	res.set("runtime.gc_cpu_frac", ratio(float64(gc), float64(profiled)), "ratio")
	cpuOps := int64(len(cpuReps)) * ops
	alloc := allocReps[0].profile
	for _, l := range layers {
		res.set(l+".self_ns_per_op", perOp(float64(cpuNs[l]), cpuOps), "ns")
		res.set(l+".allocs_per_op", perOp(float64(alloc[l]), ops), "count")
	}
	res.set("runtime.unattributed_ns_per_op", perOp(float64(cpuNs[unattributed]), cpuOps), "ns")
	res.set("runtime.unattributed_allocs_per_op", perOp(float64(alloc[unattributed]), ops), "count")
	res.set("trace.overhead_frac", ratio(
		medianOf(cpuReps, func(r *rep) float64 { return r.wall.Seconds() }),
		medianOf(plainReps, func(r *rep) float64 { return r.wall.Seconds() }))-1, "ratio")
	res.set("trace.profiled_cpu_frac", ratio(float64(profiled), float64(cpu)), "ratio")

	lat := cpuReps[0].lat
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	res.set("model.client_ops", float64(ops), "count")
	res.set("model.vtime_s", ms.VTime.Seconds(), "s")
	res.set("model.create_us.p50", us(lat.createP50), "us")
	res.set("model.create_us.p99", us(lat.createP99), "us")
	res.set("model.stat_us.p50", us(lat.statP50), "us")
	res.set("model.stat_us.p99", us(lat.statP99), "us")
	res.set("simnet.rpcs_per_op", perOp(float64(ms.RPCs), ops), "count")
	res.set("clientcache.lease_hit_ratio", ratio(float64(ms.CacheHits), float64(ms.CacheHits+ms.CacheMisses)), "ratio")
	res.set("clientcache.revocations_per_kop", ratio(float64(ms.Revocations), kops), "count")
	res.set("shard.cross_per_kop", ratio(float64(ms.Cross), kops), "count")
	res.set("agg.ops_per_vs", ratio(float64(ms.AggOps), ms.VTime.Seconds()), "1/s")
	res.set("agg.shed_frac", ratio(float64(ms.AggShed), float64(ms.AggOps+ms.AggShed)), "ratio")

	res.spans = cpuReps[len(cpuReps)-1].rec
	res.spanEnd = ms.VTime
	return res, nil
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
