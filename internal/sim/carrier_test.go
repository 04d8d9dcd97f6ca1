package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// poolRun runs one single-kernel simulation of n procs that sleep, spawn
// and join children, and returns a fingerprint of its schedule.
func poolRun(seed int64, n int) string {
	k := New(seed)
	var sum time.Duration
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(time.Duration(1+p.Kernel().Rand().Intn(50)) * time.Microsecond)
			}
			c := p.Spawn("child", func(q *Proc) { q.Sleep(time.Microsecond) })
			p.Join(c)
			sum += p.Now()
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%v/%v/%d", k.Now(), sum, k.Dispatched())
}

// domainedPoolRun runs one simulation on 3 domains in which each of
// clients procs on domain 0 makes cross-domain Calls to domains 1 and 2.
func domainedPoolRun(seed int64, clients int) string {
	k := New(seed)
	g := AddDomains(k, 2, 10*time.Microsecond)
	var sum time.Duration
	for i := 0; i < clients; i++ {
		k.Spawn(fmt.Sprintf("client%d", i), func(p *Proc) {
			for j := 0; j < 6; j++ {
				Call(p, g.Kernel(1+(i+j)%2), 10*time.Microsecond, "rpc", HandlerFunc(func(q *Proc) {
					q.Sleep(time.Duration(1+i) * time.Microsecond)
				}))
			}
			sum += p.Now()
		})
	}
	if err := g.Run(); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%v/%v", k.Now(), sum)
}

// fanPoolRun runs one simulation in which each of parents procs does
// fans fan-outs of 8 children that sleep.
func fanPoolRun(seed int64, parents, fans int) {
	k := New(seed)
	var kids [8]sleeper
	for i := range kids {
		kids[i] = sleeper(Time(1+i%3) * time.Microsecond)
	}
	for i := 0; i < parents; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < fans; j++ {
				f := p.Fan()
				for c := range kids {
					f.Go("kid", &kids[c])
				}
				f.Wait()
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// TestCarrierPoolBounded pins that finished simulations leave no
// goroutines behind beyond the pooled carriers: sequential runs reuse the
// process-wide idle list, so its size is bounded by the peak number of
// procs alive at once, not by the number of runs (domained runs used to
// leak their message-delivery goroutines on every run). Fan-outs run
// their children on pooled carriers too: 20000 of them, 8 children each,
// stay within the same bound.
func TestCarrierPoolBounded(t *testing.T) {
	const procs, clients, slack = 64, 8, 8
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		poolRun(int64(i), procs)
	}
	for i := 0; i < 50; i++ {
		domainedPoolRun(int64(i), clients)
	}
	for i := 0; i < 10; i++ {
		fanPoolRun(int64(i), 4, 500)
	}
	// Window workers exit just after the group's barrier; let them go.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+procs+slack; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+procs+slack {
		t.Fatalf("%d goroutines after 260 runs, started with %d; want at most %d more",
			got, before, procs+slack)
	}
}

// TestCarrierPoolConcurrent runs 8 kernels at once on separate goroutines,
// all drawing carriers from the shared idle list, and requires each run's
// schedule to match a sequential reference run of the same seed.
func TestCarrierPoolConcurrent(t *testing.T) {
	const kernels, runs = 8, 10
	want := make([]string, kernels)
	for i := range want {
		want[i] = poolRun(int64(i), 16) + " " + domainedPoolRun(int64(i), 4)
	}
	var wg sync.WaitGroup
	got := make([][]string, kernels)
	for i := 0; i < kernels; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				got[i] = append(got[i], poolRun(int64(i), 16)+" "+domainedPoolRun(int64(i), 4))
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		for r, s := range g {
			if s != want[i] {
				t.Fatalf("kernel %d run %d: schedule %s, want %s", i, r, s, want[i])
			}
		}
	}
}

// TestProcPanicReachesRun checks that a proc's panic surfaces from Run on
// the caller's goroutine, and that the dead carrier does not poison the
// pool: later kernels still run every proc they spawn.
func TestProcPanicReachesRun(t *testing.T) {
	poolRun(1, 32) // leave warm carriers on the idle list
	k := New(1)
	for i := 0; i < 8; i++ {
		k.Spawn("ok", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v around Run, want the proc's panic value", got)
	}
	ran := 0
	k2 := New(1)
	for i := 0; i < 64; i++ {
		k2.Spawn("after", func(p *Proc) {
			p.Yield()
			ran++
		})
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 64 {
		t.Fatalf("%d of 64 procs ran after a panicking run", ran)
	}
}
